package pose

import (
	"math"
	"testing"

	"ocularone/internal/imgproc"
	"ocularone/internal/rng"
	"ocularone/internal/scene"
)

// renderPerson renders a single-person scene and returns the frame, the
// ground truth, and a slightly padded person box (as a tracker would
// supply).
func renderPerson(p scene.Pose, depth float64, seed uint64) (*imgproc.Image, *scene.GroundTruth, imgproc.Rect) {
	s := &scene.Scene{
		Background: scene.Footpath, Lighting: 1.0, CamHeightM: 1.6, Seed: seed,
		Entities: []scene.Entity{{
			Kind: scene.VIP, X: 0, Depth: depth, HeightM: 1.7, Pose: p,
			Shirt: [3]uint8{60, 60, 160}, Pants: [3]uint8{40, 40, 60},
		}},
	}
	cam := scene.DefaultCamera(320, 240, s.CamHeightM)
	im, gt := scene.Render(s, cam)
	box := gt.PersonBox
	pad := 6
	box = imgproc.Rect{X0: box.X0 - pad, Y0: box.Y0 - pad, X1: box.X1 + pad, Y1: box.Y1 + pad}
	return im, gt, box
}

func TestAnalyzeStandingPerson(t *testing.T) {
	im, gt, box := renderPerson(scene.Standing, 5, 1)
	est, ok := Analyze(im, box)
	if !ok {
		t.Fatal("analysis failed on clean standing person")
	}
	if est.Aspect < 1.5 {
		t.Fatalf("standing aspect %v, want tall silhouette", est.Aspect)
	}
	if math.Abs(est.AxisAngle) > 0.5 {
		t.Fatalf("standing axis angle %v, want near vertical", est.AxisAngle)
	}
	if est.HeadHeight < 0.7 {
		t.Fatalf("standing head height %v, want near top", est.HeadHeight)
	}
	if est.Box.IoU(gt.PersonBox) < 0.5 {
		t.Fatalf("silhouette box %+v far from person box %+v", est.Box, gt.PersonBox)
	}
}

func TestAnalyzeFallenPerson(t *testing.T) {
	im, _, box := renderPerson(scene.Fallen, 5, 2)
	est, ok := Analyze(im, box)
	if !ok {
		t.Fatal("analysis failed on fallen person")
	}
	if est.Aspect > 1.0 {
		t.Fatalf("fallen aspect %v, want wide silhouette", est.Aspect)
	}
	if math.Abs(est.AxisAngle) < 0.6 {
		t.Fatalf("fallen axis angle %v, want near horizontal", est.AxisAngle)
	}
}

func TestAnalyzeFailsGracefully(t *testing.T) {
	im := imgproc.NewImage(64, 64)
	im.Fill(100, 100, 100)
	if _, ok := Analyze(im, imgproc.Rect{X0: 10, Y0: 10, X1: 50, Y1: 50}); ok {
		t.Fatal("uniform image produced a pose estimate")
	}
	if _, ok := Analyze(im, imgproc.Rect{X0: 0, Y0: 0, X1: 2, Y1: 2}); ok {
		t.Fatal("degenerate box produced an estimate")
	}
}

func TestKeypointsOrderingStanding(t *testing.T) {
	im, _, box := renderPerson(scene.Standing, 5, 3)
	est, ok := Analyze(im, box)
	if !ok {
		t.Fatal("analysis failed")
	}
	head := est.Keypoints[scene.KPHead]
	pelvis := est.Keypoints[scene.KPPelvis]
	ankle := est.Keypoints[scene.KPLeftAnkle]
	if !(head.Y < pelvis.Y && pelvis.Y < ankle.Y) {
		t.Fatalf("skeleton order: head %v pelvis %v ankle %v", head.Y, pelvis.Y, ankle.Y)
	}
}

func TestPCKAgainstGroundTruth(t *testing.T) {
	im, gt, box := renderPerson(scene.Standing, 5, 4)
	est, ok := Analyze(im, box)
	if !ok {
		t.Fatal("analysis failed")
	}
	size := float64(gt.PersonBox.H())
	pck := PCK(est.Keypoints, gt.Keypoints, size, 0.25)
	if pck < 0.6 {
		t.Fatalf("PCK@0.25 = %v, want ≥0.6", pck)
	}
}

func TestPCKEdgeCases(t *testing.T) {
	var a, b [scene.NumKeypoints]scene.Keypoint
	if PCK(a, b, 0, 0.2) != 0 {
		t.Fatal("zero person size not handled")
	}
	if PCK(a, b, 100, 0.2) != 0 {
		t.Fatal("no visible ground truth not handled")
	}
	// Perfect match.
	for i := range b {
		b[i] = scene.Keypoint{X: float64(i), Y: float64(i), Visible: true}
	}
	if got := PCK(b, b, 100, 0.2); got != 1 {
		t.Fatalf("self PCK = %v", got)
	}
}

// buildFallSet renders a labelled set of standing/walking vs fallen
// poses across depths and seeds.
func buildFallSet(t *testing.T, n int, seedBase uint64) ([]Estimate, []bool) {
	t.Helper()
	r := rng.New(seedBase)
	var ests []Estimate
	var labels []bool
	for i := 0; i < n; i++ {
		p := scene.Standing
		fallen := i%2 == 0
		if fallen {
			p = scene.Fallen
		} else if r.Bool(0.5) {
			p = scene.Walking
		}
		depth := r.Range(4, 8)
		im, _, box := renderPerson(p, depth, seedBase+uint64(i))
		if est, ok := Analyze(im, box); ok {
			ests = append(ests, est)
			labels = append(labels, fallen)
		}
	}
	if len(ests) < n/2 {
		t.Fatalf("only %d/%d poses analysed", len(ests), n)
	}
	return ests, labels
}

func TestFallClassifierAccuracy(t *testing.T) {
	ests, labels := buildFallSet(t, 60, 100)
	clf := TrainFall(ests, labels, 7)
	// Held-out set.
	testEsts, testLabels := buildFallSet(t, 30, 999)
	hit := 0
	for i, e := range testEsts {
		if clf.IsFallen(e) == testLabels[i] {
			hit++
		}
	}
	acc := float64(hit) / float64(len(testEsts))
	if acc < 0.85 {
		t.Fatalf("fall detection accuracy %v, want ≥0.85", acc)
	}
}

func TestFeaturesVector(t *testing.T) {
	e := Estimate{Aspect: 2.5, AxisAngle: -0.3, HeadHeight: 0.9}
	f := e.Features()
	if len(f) != 3 || f[0] != 2.5 || f[1] != 0.3 || f[2] != 0.9 {
		t.Fatalf("features %v", f)
	}
}

// PCK computes the fraction of estimated keypoints within tol×personSize
// of ground truth (the "percentage of correct keypoints" metric), over
// visible ground-truth points.
func PCK(est, gt [scene.NumKeypoints]scene.Keypoint, personSize, tol float64) float64 {
	if personSize <= 0 {
		return 0
	}
	hit, total := 0, 0
	for i := range gt {
		if !gt[i].Visible {
			continue
		}
		total++
		if !est[i].Visible {
			continue
		}
		dx := est[i].X - gt[i].X
		dy := est[i].Y - gt[i].Y
		if math.Sqrt(dx*dx+dy*dy) <= tol*personSize {
			hit++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(hit) / float64(total)
}
