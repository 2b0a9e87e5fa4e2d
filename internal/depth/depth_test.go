package depth

import (
	"fmt"
	"math"
	"testing"

	"ocularone/internal/imgproc"
	"ocularone/internal/rng"
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

// truthPlane is a calibration frame's true depth as a dense row-major
// W×H plane, read from the ground truth one pixel at a time.
func truthPlane(f CalibrationFrame) []float32 {
	w, h := f.Image.W, f.Image.H
	out := make([]float32, w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			out[y*w+x] = f.Truth.DepthAt(x, y)
		}
	}
	return out
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
	gt := truthPlane(f)
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
	full := Evaluate(e.Predict(f.Image, []imgproc.Rect{f.Truth.PersonBox}), truthPlane(f))
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
	noObs := Evaluate(e.Predict(f.Image, nil), truthPlane(f))
	withObs := Evaluate(e.Predict(f.Image, []imgproc.Rect{f.Truth.PersonBox}), truthPlane(f))
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

// Predict is the estimator's dense form, kept as the oracle of
// NearestObstacleM: a depth map (metres, row-major W*H) for the frame,
// each row at the ground plane's depth and each obstacle box, in order,
// at the depth of its ground-contact row.
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

// refNearestObstacleM is NearestObstacleM over the dense map: the
// smallest of Predict's values at the obstacles' centres.
func refNearestObstacleM(e *Estimator, im *imgproc.Image, obstacles []imgproc.Rect) float64 {
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

// checkNearest holds NearestObstacleM on a w×h frame to the dense
// reference, bit for bit.
func checkNearest(t *testing.T, e *Estimator, w, h int, obstacles []imgproc.Rect) {
	t.Helper()
	im := &imgproc.Image{W: w, H: h}
	got, want := e.NearestObstacleM(im, obstacles), refNearestObstacleM(e, im, obstacles)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("A %v B %v, %dx%d, obstacles %v: %v, reference %v", e.A, e.B, w, h, obstacles, got, want)
	}
}

// oracleFits are the estimators the oracle tests run: a fit from
// rendered frames, and hand-set ground planes that put some rows, every
// row or no row at or under the 1e-6 inverse-depth threshold, clamp rows
// to farDepth, fall in inverse depth down the frame, or are NaN.
func oracleFits(t *testing.T) []*Estimator {
	var fit Estimator
	if err := fit.Fit(calibrationFrames(3, 50)); err != nil {
		t.Fatal(err)
	}
	return []*Estimator{
		&fit,
		{A: 0.004, B: -0.2, Trained: true},   // horizon at row 50
		{A: 0, B: 1e-6, Trained: true},       // every row at the threshold
		{A: 0, B: 0.5, Trained: true},        // flat at 2 m
		{A: 2e-6, B: 0, Trained: true},       // rows 1–499 clamp to farDepth
		{A: -0.003, B: 0.3, Trained: true},   // falls to the threshold at row 100
		{A: 0.01, B: -1e-6, Trained: true},   // row 0 under the threshold only
		{A: math.NaN(), B: 0, Trained: true}, // no plane: every value NaN
	}
}

// randomObstacles draws up to seven boxes on a w×h frame: anywhere from
// well off the frame to inside it, empty or inverted one time in eight,
// and one time in four a box grown or shrunk from an earlier one, so
// boxes overlap and nest.
func randomObstacles(r *rng.RNG, w, h int) []imgproc.Rect {
	obs := make([]imgproc.Rect, r.Intn(8))
	for i := range obs {
		x0, y0 := r.Intn(2*w+8)-w/2-4, r.Intn(2*h+8)-h/2-4
		b := imgproc.Rect{X0: x0, Y0: y0, X1: x0 + 1 + r.Intn(w+1), Y1: y0 + 1 + r.Intn(h+1)}
		if i > 0 && r.Intn(4) == 0 {
			b = obs[r.Intn(i)]
			g := r.Intn(9) - 4
			b.X0, b.Y0, b.X1, b.Y1 = b.X0-g, b.Y0-g, b.X1+g, b.Y1+g
		}
		if r.Intn(8) == 0 {
			b.X0, b.X1 = b.X1, b.X0
		}
		obs[i] = b
	}
	return obs
}

// TestNearestObstacleMatchesReference holds the closed form to the
// minimum over Predict's dense map on 24,000 random obstacle sets — off
// the frame, empty, overlapping — over eight fits, on frames of 1–120 ×
// 1–90 pixels.
func TestNearestObstacleMatchesReference(t *testing.T) {
	r := rng.New(42)
	for _, e := range oracleFits(t) {
		checkNearest(t, e, 320, 240, nil)
		checkNearest(t, e, 320, 240, []imgproc.Rect{{}})
		for i := 0; i < 3000; i++ {
			w, h := 1+r.Intn(120), 1+r.Intn(90)
			checkNearest(t, e, w, h, randomObstacles(r, w, h))
		}
	}
}

// FuzzNearestObstacleMatchesReference: any ground plane, any frame of
// 1–128 × 1–128 pixels, any boxes of coordinates in [-128, 127].
func FuzzNearestObstacleMatchesReference(f *testing.F) {
	f.Add(uint8(96), uint8(96), int16(4000), int16(-20000), []byte{10, 10, 40, 60, 20, 5, 30, 70})
	f.Add(uint8(7), uint8(5), int16(0), int16(0), []byte{0, 0, 3, 3, 2, 2, 200, 200})
	f.Add(uint8(127), uint8(33), int16(-3000), int16(30000), []byte{255, 128, 127, 1})
	f.Fuzz(func(t *testing.T, w8, h8 uint8, a, b int16, boxes []byte) {
		w, h := 1+int(w8)%128, 1+int(h8)%128
		e := &Estimator{A: float64(a) * 1e-6, B: float64(b) * 1e-5, Trained: true}
		var obs []imgproc.Rect
		for i := 0; i+4 <= len(boxes) && len(obs) < 16; i += 4 {
			c := boxes[i : i+4]
			obs = append(obs, imgproc.Rect{X0: int(int8(c[0])), Y0: int(int8(c[1])), X1: int(int8(c[2])), Y1: int(int8(c[3]))})
		}
		checkNearest(t, e, w, h, obs)
	})
}

// TestNearestObstacleZeroAlloc: the closed form builds no map.
func TestNearestObstacleZeroAlloc(t *testing.T) {
	e := &Estimator{A: 0.004, B: -0.2, Trained: true}
	im := &imgproc.Image{W: 320, H: 240}
	obs := []imgproc.Rect{{X0: 100, Y0: 80, X1: 140, Y1: 200}, {X0: 120, Y0: 150, X1: 300, Y1: 230}}
	if n := testing.AllocsPerRun(100, func() { e.NearestObstacleM(im, obs) }); n != 0 {
		t.Fatalf("NearestObstacleM allocates %v times a call, want 0", n)
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
