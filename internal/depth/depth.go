package depth

import (
	"fmt"
	"math"

	"ocularone/internal/imgproc"
	"ocularone/internal/scene"
)

// Estimator estimates metric depth in a single frame after calibration,
// one point at a time: no dense map is built.
type Estimator struct {
	// Inverse-depth ≈ A·row + B below the fitted horizon.
	A, B float64
	// HorizonRow is the learned row where inverse depth reaches ~0.
	HorizonRow float64
	// Trained reports whether Fit has run.
	Trained bool
	// FitFrames is the number of calibration frames used.
	FitFrames int
}

// CalibrationFrame pairs a rendered frame with its ground truth, whose
// DepthAt is the true depth.
type CalibrationFrame struct {
	Image *imgproc.Image
	Truth *scene.GroundTruth
}

// Fit regresses inverse depth against image row over the calibration
// frames (least squares over ground pixels). This is the training step
// of the substitute model.
func (e *Estimator) Fit(frames []CalibrationFrame) error {
	var sx, sy, sxx, sxy float64
	n := 0
	for _, f := range frames {
		if f.Image == nil || f.Truth == nil {
			return fmt.Errorf("depth: nil calibration frame")
		}
		w := f.Image.W
		h := f.Image.H
		// Mask out people and obstacles: their constant depth violates
		// the ground-plane model (the analogue of Monodepth2 masking
		// moving objects during self-supervised training).
		skip := func(x, y int) bool {
			p := imgproc.Rect{X0: x, Y0: y, X1: x + 1, Y1: y + 1}
			if !f.Truth.PersonBox.Intersect(p).Empty() {
				return true
			}
			for _, b := range f.Truth.DistractorBoxes {
				if !b.Intersect(p).Empty() {
					return true
				}
			}
			return false
		}
		for y := 0; y < h; y += 4 {
			for x := 0; x < w; x += 8 {
				if skip(x, y) {
					continue
				}
				d := float64(f.Truth.DepthAt(x, y))
				if d <= 0 || d > 100 {
					continue // sky/building sentinels
				}
				inv := 1 / d
				row := float64(y)
				sx += row
				sy += inv
				sxx += row * row
				sxy += row * inv
				n++
			}
		}
	}
	if n < 10 {
		return fmt.Errorf("depth: only %d calibration samples", n)
	}
	den := float64(n)*sxx - sx*sx
	if den == 0 {
		return fmt.Errorf("depth: degenerate calibration (all rows equal)")
	}
	e.A = (float64(n)*sxy - sx*sy) / den
	e.B = (sy - e.A*sx) / float64(n)
	if e.A > 0 {
		e.HorizonRow = -e.B / e.A
	}
	e.Trained = true
	e.FitFrames = len(frames)
	return nil
}

// farDepth is the sentinel for sky/horizon pixels, matching the
// renderer's convention.
const farDepth = 1000

// rowDepth is the ground-plane model's depth at image row y, clamped to
// farDepth: the depth of every pixel of the row no obstacle covers.
func (e *Estimator) rowDepth(y int) float32 {
	inv := e.A*float64(y) + e.B
	if inv <= 1e-6 {
		return farDepth
	}
	return float32(min(1/inv, farDepth))
}

// NearestObstacleM returns the smallest estimated depth among obstacle
// boxes (from the detector or tracker), each read at its centre — the
// proximity signal the VIP pipeline alerts on. Obstacles stand on the
// ground, so a box shares the depth of its ground-contact row, the
// refinement a stereo-free monocular model performs implicitly: a centre
// takes the depth of the last box covering it whose contact row the
// model puts below its horizon, else its row's ground depth. It returns
// +inf when there are no obstacles, and allocates nothing.
func (e *Estimator) NearestObstacleM(im *imgproc.Image, obstacles []imgproc.Rect) float64 {
	nearest := math.Inf(1)
	if len(obstacles) == 0 {
		return nearest
	}
	if !e.Trained {
		panic("depth: NearestObstacleM before Fit")
	}
	for _, ob := range obstacles {
		ob = ob.Clamp(im.W, im.H)
		if ob.Empty() {
			continue
		}
		cx, cy := ob.Center()
		x, y := int(cx), int(cy)
		d := e.rowDepth(y)
		for i := len(obstacles) - 1; i >= 0; i-- {
			o := obstacles[i].Clamp(im.W, im.H)
			if x < o.X0 || x >= o.X1 || y < o.Y0 || y >= o.Y1 {
				continue
			}
			inv := e.A*float64(o.Y1-1) + e.B
			if inv <= 1e-6 {
				continue
			}
			d = float32(1 / inv)
			break
		}
		if float64(d) < nearest {
			nearest = float64(d)
		}
	}
	return nearest
}
