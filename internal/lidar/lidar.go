package lidar

import (
	"fmt"
	"math"

	"ocularone/internal/imgproc"
	"ocularone/internal/rng"
	"ocularone/internal/scene"
)

// Spec describes the scanner.
type Spec struct {
	// Beams across the camera's horizontal field of view.
	Beams int
	// MaxRangeM is the sensor ceiling; returns beyond it read as +inf.
	MaxRangeM float64
	// NoiseM is the 1σ range noise in metres.
	NoiseM float64
	// DropoutP is the per-beam probability of no return (sunlight,
	// absorptive surfaces).
	DropoutP float64
}

// DefaultSpec matches a small ToF scanner: 64 beams, 12 m range,
// ±3 cm noise, 2% dropout.
func DefaultSpec() Spec {
	return Spec{Beams: 64, MaxRangeM: 12, NoiseM: 0.03, DropoutP: 0.02}
}

// Scan is one sweep: per-beam ranges in metres; +inf marks no return.
type Scan struct {
	Ranges []float64
	Spec   Spec
}

// Simulate produces a scan from the renderer's ground-truth depth map:
// each beam samples the scene depth along the camera's central row band,
// then applies range limit, noise, and dropout. Deterministic per seed.
func Simulate(spec Spec, gt *scene.GroundTruth, w, h int, r *rng.RNG) Scan {
	if spec.Beams <= 0 {
		panic(fmt.Sprintf("lidar: %d beams", spec.Beams))
	}
	ranges := make([]float64, spec.Beams)
	// The scanner plane sits at the camera height: sample a band around
	// the frame's vertical centre, taking the nearest surface per beam
	// (a fan beam has nonzero divergence).
	y0 := h/2 - 2
	y1 := h/2 + 3
	for b := 0; b < spec.Beams; b++ {
		x := (b*w + w/spec.Beams/2) / spec.Beams
		if x >= w {
			x = w - 1
		}
		nearest := math.Inf(1)
		for y := y0; y < y1; y++ {
			if y < 0 || y >= h {
				continue
			}
			d := float64(gt.Depth[y*w+x])
			if d > 0 && d < nearest {
				nearest = d
			}
		}
		switch {
		case r.Bool(spec.DropoutP):
			ranges[b] = math.Inf(1)
		case nearest > spec.MaxRangeM:
			ranges[b] = math.Inf(1)
		default:
			ranges[b] = math.Max(0.1, nearest+r.NormRange(0, spec.NoiseM))
		}
	}
	return Scan{Ranges: ranges, Spec: spec}
}

// RangeAt returns the beam range covering image column x of a w-wide
// frame.
func (s Scan) RangeAt(x, w int) float64 {
	b := x * s.Spec.Beams / w
	if b < 0 {
		b = 0
	}
	if b >= s.Spec.Beams {
		b = s.Spec.Beams - 1
	}
	return s.Ranges[b]
}

// FuseObstacleDistance combines vision and LiDAR for one obstacle box:
// the scanner's return within the box's column span when available
// (precise), else the vision estimate (dense fallback). The returned
// source tag supports the fusion ablation.
func FuseObstacleDistance(visionM float64, scan Scan, box imgproc.Rect, frameW int) (float64, string) {
	best := math.Inf(1)
	for x := box.X0; x < box.X1; x++ {
		if x < 0 || x >= frameW {
			continue
		}
		if v := scan.RangeAt(x, frameW); v < best {
			best = v
		}
	}
	if math.IsInf(best, 1) {
		return visionM, "vision"
	}
	// Beams see through gaps and may report background past the object;
	// guard with the vision prior: accept LiDAR when it is within 2× of
	// the vision estimate or strictly closer (safety-first).
	if best <= visionM*2 {
		return best, "lidar"
	}
	return visionM, "vision"
}
