package lidar

import (
	"math"
	"testing"

	"ocularone/internal/rng"
	"ocularone/internal/scene"
)

func renderWithPerson(depthM float64, seed uint64) (*scene.GroundTruth, int, int) {
	s := &scene.Scene{
		Background: scene.Footpath, Lighting: 1.0, CamHeightM: 1.6, Seed: seed,
		Entities: []scene.Entity{{
			Kind: scene.VIP, X: 0, Depth: depthM, HeightM: 1.7,
			Shirt: [3]uint8{60, 60, 160}, Pants: [3]uint8{40, 40, 60},
		}},
	}
	cam := scene.DefaultCamera(320, 240, 1.6)
	_, gt := scene.Render(s, cam)
	return gt, 320, 240
}

func TestSimulateHitsPerson(t *testing.T) {
	gt, w, h := renderWithPerson(5, 1)
	scan := Simulate(DefaultSpec(), gt, w, h, rng.New(2))
	if len(scan.Ranges) != 64 {
		t.Fatalf("beams %d", len(scan.Ranges))
	}
	// The person stands on the camera axis at 5 m; the central beams
	// must return ≈5 m.
	n := scan.Nearest()
	if math.Abs(n-5) > 0.3 {
		t.Fatalf("nearest return %v, want ≈5", n)
	}
}

func TestSimulateRangeLimit(t *testing.T) {
	gt, w, h := renderWithPerson(20, 3) // beyond the 12 m ceiling
	spec := DefaultSpec()
	spec.DropoutP = 0
	scan := Simulate(spec, gt, w, h, rng.New(4))
	for b, v := range scan.Ranges {
		if !math.IsInf(v, 1) && v > spec.MaxRangeM+0.5 {
			t.Fatalf("beam %d returned %v beyond ceiling", b, v)
		}
	}
}

func TestSimulateNoiseMagnitude(t *testing.T) {
	gt, w, h := renderWithPerson(5, 5)
	spec := DefaultSpec()
	spec.DropoutP = 0
	// Repeat scans: per-beam σ must be ≈ NoiseM.
	var devs []float64
	for i := 0; i < 50; i++ {
		scan := Simulate(spec, gt, w, h, rng.New(uint64(i)))
		devs = append(devs, scan.Nearest()-5)
	}
	var sum, sq float64
	for _, d := range devs {
		sum += d
		sq += d * d
	}
	mean := sum / float64(len(devs))
	sd := math.Sqrt(sq/float64(len(devs)) - mean*mean)
	if sd > 0.1 {
		t.Fatalf("scan stddev %v, want ≈0.03", sd)
	}
}

func TestDropout(t *testing.T) {
	gt, w, h := renderWithPerson(5, 6)
	spec := DefaultSpec()
	spec.DropoutP = 1 // every beam drops
	scan := Simulate(spec, gt, w, h, rng.New(7))
	if !math.IsInf(scan.Nearest(), 1) {
		t.Fatal("full dropout still returned ranges")
	}
}

func TestRangeAtMapsColumns(t *testing.T) {
	s := Scan{Ranges: make([]float64, 4), Spec: Spec{Beams: 4}}
	for i := range s.Ranges {
		s.Ranges[i] = float64(i)
	}
	if s.RangeAt(0, 100) != 0 || s.RangeAt(99, 100) != 3 || s.RangeAt(50, 100) != 2 {
		t.Fatal("column→beam mapping wrong")
	}
	// Clamped outside.
	if s.RangeAt(-5, 100) != 0 || s.RangeAt(500, 100) != 3 {
		t.Fatal("clamping wrong")
	}
}

func TestFusionPrefersLidarWhenPlausible(t *testing.T) {
	gt, w, h := renderWithPerson(6, 8)
	spec := DefaultSpec()
	spec.DropoutP = 0
	scan := Simulate(spec, gt, w, h, rng.New(9))
	// Vision estimate biased by 25% (typical monocular error); fusion
	// must land nearer the true 6 m.
	fused, src := FuseObstacleDistance(7.5, scan, gt.PersonBox, w)
	if src != "lidar" {
		t.Fatalf("fusion source %q", src)
	}
	if math.Abs(fused-6) > 0.3 {
		t.Fatalf("fused distance %v, want ≈6", fused)
	}
}

func TestFusionFallsBackToVision(t *testing.T) {
	gt, w, _ := renderWithPerson(5, 10)
	// All beams dropped: vision wins.
	scan := Scan{Ranges: make([]float64, 64), Spec: Spec{Beams: 64}}
	for i := range scan.Ranges {
		scan.Ranges[i] = math.Inf(1)
	}
	fused, src := FuseObstacleDistance(5.4, scan, gt.PersonBox, w)
	if src != "vision" || fused != 5.4 {
		t.Fatalf("fallback wrong: %v from %q", fused, src)
	}
}

func TestFusionImprovesOverVisionAlone(t *testing.T) {
	// Across many frames, fused error must be below vision-only error.
	spec := DefaultSpec()
	spec.DropoutP = 0.05
	var visionErr, fusedErr float64
	n := 0
	for i := 0; i < 30; i++ {
		depth := 3 + float64(i%7)
		gt, w, h := renderWithPerson(depth, uint64(100+i))
		scan := Simulate(spec, gt, w, h, rng.New(uint64(200+i)))
		vision := depth * (1 + 0.2*math.Sin(float64(i))) // biased vision
		fused, _ := FuseObstacleDistance(vision, scan, gt.PersonBox, w)
		visionErr += math.Abs(vision - depth)
		fusedErr += math.Abs(fused - depth)
		n++
	}
	if fusedErr >= visionErr {
		t.Fatalf("fusion no better: fused %.2f vs vision %.2f", fusedErr/float64(n), visionErr/float64(n))
	}
}

func TestSimulatePanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	gt, w, h := renderWithPerson(5, 11)
	Simulate(Spec{}, gt, w, h, rng.New(1))
}

// Nearest returns the smallest valid return, or +inf.
func (s Scan) Nearest() float64 {
	min := math.Inf(1)
	for _, v := range s.Ranges {
		if v < min {
			min = v
		}
	}
	return min
}
