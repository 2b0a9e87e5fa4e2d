package depth

import (
	"fmt"
	"math"
	"testing"

	"ocularone/internal/imgproc"
	"ocularone/internal/scene"
)

func calibrationFrames(n int, seedBase uint64) []CalibrationFrame {
	frames := make([]CalibrationFrame, n)
	for i := range frames {
		s := &scene.Scene{
			Background: scene.Footpath, Lighting: 1.0, CamHeightM: 1.6,
			Seed: seedBase + uint64(i),
			Entities: []scene.Entity{{
				Kind: scene.VIP, X: 0, Depth: 5 + float64(i), HeightM: 1.7,
				Shirt: [3]uint8{60, 60, 160}, Pants: [3]uint8{40, 40, 60},
			}},
		}
		cam := scene.DefaultCamera(320, 240, s.CamHeightM)
		im, gt := scene.Render(s, cam)
		frames[i] = CalibrationFrame{Image: im, Truth: gt}
	}
	return frames
}

func TestFitLearnsGroundPlane(t *testing.T) {
	var e Estimator
	if err := e.Fit(calibrationFrames(3, 1)); err != nil {
		t.Fatal(err)
	}
	if !e.Trained || e.A <= 0 {
		t.Fatalf("bad fit: %+v", e)
	}
	// Learned horizon should sit near the camera's 0.42·H ≈ row 101.
	if e.HorizonRow < 60 || e.HorizonRow > 140 {
		t.Fatalf("horizon row %v, expected ≈101", e.HorizonRow)
	}
}

func TestFitErrors(t *testing.T) {
	var e Estimator
	if err := e.Fit(nil); err == nil {
		t.Fatal("empty calibration accepted")
	}
	if err := e.Fit([]CalibrationFrame{{}}); err == nil {
		t.Fatal("nil frame accepted")
	}
}

func TestPredictBeforeFitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	var e Estimator
	e.Predict(imgproc.NewImage(4, 4), nil)
}

func TestPredictGroundAccuracy(t *testing.T) {
	var e Estimator
	if err := e.Fit(calibrationFrames(3, 10)); err != nil {
		t.Fatal(err)
	}
	frames := calibrationFrames(1, 99)
	f := frames[0]
	// Ground-only accuracy: mask the person (whose constant depth the
	// plain ground model cannot know) out of the ground truth.
	gt := append([]float32(nil), f.Truth.Depth...)
	for y := f.Truth.PersonBox.Y0; y < f.Truth.PersonBox.Y1; y++ {
		for x := f.Truth.PersonBox.X0; x < f.Truth.PersonBox.X1; x++ {
			gt[y*f.Image.W+x] = 0
		}
	}
	m := Evaluate(e.Predict(f.Image, nil), gt)
	if m.AbsRel > 0.05 {
		t.Fatalf("ground abs-rel %.3f too high (%s)", m.AbsRel, m)
	}
	// Full-frame accuracy with obstacle refinement enabled.
	full := Evaluate(e.Predict(f.Image, []imgproc.Rect{f.Truth.PersonBox}), f.Truth.Depth)
	if full.AbsRel > 0.15 {
		t.Fatalf("full abs-rel %.3f too high (%s)", full.AbsRel, full)
	}
	if full.Delta1 < 0.9 {
		t.Fatalf("δ1 %.2f too low", full.Delta1)
	}
}

func TestObstacleRefinementImprovesAccuracy(t *testing.T) {
	var e Estimator
	if err := e.Fit(calibrationFrames(3, 20)); err != nil {
		t.Fatal(err)
	}
	f := calibrationFrames(1, 123)[0]
	noObs := Evaluate(e.Predict(f.Image, nil), f.Truth.Depth)
	withObs := Evaluate(e.Predict(f.Image, []imgproc.Rect{f.Truth.PersonBox}), f.Truth.Depth)
	if withObs.AbsRel > noObs.AbsRel {
		t.Fatalf("obstacle refinement hurt: %.3f vs %.3f", withObs.AbsRel, noObs.AbsRel)
	}
}

func TestObstacleDepthMatchesEntity(t *testing.T) {
	var e Estimator
	if err := e.Fit(calibrationFrames(4, 30)); err != nil {
		t.Fatal(err)
	}
	// Person at a known 6 m.
	s := &scene.Scene{
		Background: scene.Footpath, Lighting: 1.0, CamHeightM: 1.6, Seed: 5,
		Entities: []scene.Entity{{
			Kind: scene.VIP, X: 0, Depth: 6, HeightM: 1.7,
			Shirt: [3]uint8{60, 60, 160}, Pants: [3]uint8{40, 40, 60},
		}},
	}
	cam := scene.DefaultCamera(320, 240, 1.6)
	im, gt := scene.Render(s, cam)
	d := e.NearestObstacleM(im, []imgproc.Rect{gt.PersonBox})
	if math.Abs(d-6) > 1.5 {
		t.Fatalf("obstacle depth %v, want ≈6 m", d)
	}
}

func TestNearestObstacleEmpty(t *testing.T) {
	var e Estimator
	if err := e.Fit(calibrationFrames(2, 40)); err != nil {
		t.Fatal(err)
	}
	if d := e.NearestObstacleM(imgproc.NewImage(320, 240), nil); !math.IsInf(d, 1) {
		t.Fatalf("no obstacles should be +inf, got %v", d)
	}
}

func TestEvaluateMetrics(t *testing.T) {
	gt := []float32{2, 4, 8, 1000} // last is sky sentinel, excluded
	perfect := []float32{2, 4, 8, 1}
	m := Evaluate(perfect, gt)
	if m.N != 3 || m.AbsRel != 0 || m.RMSE != 0 || m.Delta1 != 1 {
		t.Fatalf("perfect metrics %+v", m)
	}
	off := []float32{3, 6, 12, 1} // +50% everywhere
	m2 := Evaluate(off, gt)
	if math.Abs(m2.AbsRel-0.5) > 1e-6 {
		t.Fatalf("abs-rel %v, want 0.5", m2.AbsRel)
	}
	if m2.Delta1 != 0 {
		t.Fatalf("δ1 %v, want 0 at +50%% error", m2.Delta1)
	}
}

func TestEvaluateMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Evaluate([]float32{1}, []float32{1, 2})
}

func TestEvaluateAllInvalid(t *testing.T) {
	if m := Evaluate([]float32{1, 1}, []float32{0, 2000}); m.N != 0 {
		t.Fatalf("invalid pixels counted: %+v", m)
	}
}

// Evaluate compares a prediction against ground truth over valid pixels
// (depth < 100 m, excluding sky and far sentinels).
func Evaluate(pred, gt []float32) Metrics {
	if len(pred) != len(gt) {
		panic(fmt.Sprintf("depth: Evaluate length mismatch %d vs %d", len(pred), len(gt)))
	}
	var absRel, sqSum float64
	var d1 int
	n := 0
	for i := range gt {
		g := float64(gt[i])
		p := float64(pred[i])
		if g <= 0 || g > 100 || p <= 0 {
			continue
		}
		absRel += math.Abs(p-g) / g
		sqSum += (p - g) * (p - g)
		r := p / g
		if r < 1 {
			r = 1 / r
		}
		if r < 1.25 {
			d1++
		}
		n++
	}
	if n == 0 {
		return Metrics{}
	}
	return Metrics{
		AbsRel: absRel / float64(n),
		RMSE:   math.Sqrt(sqSum / float64(n)),
		Delta1: float64(d1) / float64(n),
		N:      n,
	}
}

// Metrics are the standard monocular-depth evaluation numbers.
type Metrics struct {
	AbsRel float64 // mean |pred-gt|/gt
	RMSE   float64 // root mean squared error (metres)
	Delta1 float64 // fraction with max(pred/gt, gt/pred) < 1.25
	N      int
}

// String renders the metrics compactly.
func (m Metrics) String() string {
	return fmt.Sprintf("abs-rel=%.3f rmse=%.2fm δ<1.25=%.1f%% (n=%d)", m.AbsRel, m.RMSE, 100*m.Delta1, m.N)
}
