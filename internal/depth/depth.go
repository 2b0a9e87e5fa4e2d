package depth

import (
	"fmt"
	"math"

	"ocularone/internal/imgproc"
	"ocularone/internal/scene"
)

// Estimator predicts dense depth from a single frame after calibration.
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

// CalibrationFrame pairs a rendered frame with its true depth map.
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
				d := float64(f.Truth.Depth[y*w+x])
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

// Predict returns a dense depth map (metres, row-major W*H) for the
// frame. Obstacle boxes, when provided (from the detector or tracker),
// are assigned the depth of their ground-contact row — the refinement a
// stereo-free monocular model performs implicitly.
func (e *Estimator) Predict(im *imgproc.Image, obstacles []imgproc.Rect) []float32 {
	if !e.Trained {
		panic("depth: Predict before Fit")
	}
	out := make([]float32, im.W*im.H)
	for y := 0; y < im.H; y++ {
		inv := e.A*float64(y) + e.B
		var d float64
		if inv <= 1e-6 {
			d = farDepth
		} else {
			d = 1 / inv
			if d > farDepth {
				d = farDepth
			}
		}
		for x := 0; x < im.W; x++ {
			out[y*im.W+x] = float32(d)
		}
	}
	// Obstacles stand on the ground: their whole extent shares the depth
	// of the contact row.
	for _, ob := range obstacles {
		ob = ob.Clamp(im.W, im.H)
		if ob.Empty() {
			continue
		}
		contact := ob.Y1 - 1
		inv := e.A*float64(contact) + e.B
		if inv <= 1e-6 {
			continue
		}
		d := float32(1 / inv)
		for y := ob.Y0; y < ob.Y1; y++ {
			for x := ob.X0; x < ob.X1; x++ {
				out[y*im.W+x] = d
			}
		}
	}
	return out
}

// NearestObstacleM returns the smallest predicted depth among obstacle
// boxes — the proximity signal the VIP pipeline alerts on. It returns
// +inf when there are no obstacles.
func (e *Estimator) NearestObstacleM(im *imgproc.Image, obstacles []imgproc.Rect) float64 {
	nearest := math.Inf(1)
	if len(obstacles) == 0 {
		return nearest
	}
	pred := e.Predict(im, obstacles)
	for _, ob := range obstacles {
		ob = ob.Clamp(im.W, im.H)
		if ob.Empty() {
			continue
		}
		cx, cy := ob.Center()
		d := float64(pred[int(cy)*im.W+int(cx)])
		if d < nearest {
			nearest = d
		}
	}
	return nearest
}
