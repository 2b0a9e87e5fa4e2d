package pipeline

import (
	"testing"

	"ocularone/internal/dataset"
	"ocularone/internal/depth"
	"ocularone/internal/detect"
	"ocularone/internal/device"
	"ocularone/internal/imgproc"
	"ocularone/internal/models"
	"ocularone/internal/pose"
	"ocularone/internal/rng"
	"ocularone/internal/scene"
	"ocularone/internal/video"
)

// buildStack trains a small but functional detector + fall classifier +
// depth estimator for pipeline tests.
func buildStack(t *testing.T) (*detect.Detector, *pose.FallClassifier, *depth.Estimator) {
	t.Helper()
	ds := dataset.Build(dataset.Config{Scale: 0.01, Seed: 42, W: 320, H: 240})
	sp := ds.StratifiedSplit(0.3)
	det := detect.TrainDataset(detect.TierFor(models.YOLOv8, models.Medium), sp.Train)

	// Fall classifier over rendered poses.
	r := rng.New(7)
	var ests []pose.Estimate
	var labels []bool
	cam := scene.DefaultCamera(320, 240, 1.6)
	for i := 0; i < 40; i++ {
		p := scene.Walking
		fallen := i%2 == 0
		if fallen {
			p = scene.Fallen
		}
		s := &scene.Scene{
			Background: scene.Footpath, Lighting: 1.0, CamHeightM: 1.6, Seed: uint64(i),
			Entities: []scene.Entity{{
				Kind: scene.VIP, X: 0, Depth: r.Range(4, 8), HeightM: 1.7, Pose: p,
				Shirt: [3]uint8{60, 60, 160}, Pants: [3]uint8{40, 40, 60},
			}},
		}
		im, gt := scene.Render(s, cam)
		box := gt.PersonBox
		box.X0 -= 6
		box.Y0 -= 6
		box.X1 += 6
		box.Y1 += 6
		if est, ok := pose.Analyze(im, box); ok {
			ests = append(ests, est)
			labels = append(labels, fallen)
		}
	}
	fall := pose.TrainFall(ests, labels, 9)

	var est depth.Estimator
	var frames []depth.CalibrationFrame
	for i := 0; i < 3; i++ {
		rr := sp.Train.Render(sp.Train.Items[i])
		frames = append(frames, depth.CalibrationFrame{Image: rr.Image, Truth: rr.Truth})
	}
	if err := est.Fit(frames); err != nil {
		t.Fatal(err)
	}
	return det, fall, &est
}

func testVideo() *video.Video {
	return video.New(video.Spec{
		ID: 1, DurationSec: 3, FPS: 30, W: 320, H: 240,
		Background: scene.Footpath, Lighting: 1.0, Seed: 11, Pedestrians: 1,
	})
}

// vipSession is a standalone session of the classic three-stage graph
// over a trained stack: 10 FPS, the default queueing policy.
func vipSession(v *video.Video, det *detect.Detector, fall *pose.FallClassifier, est *depth.Estimator,
	place map[StageID]Placement, useTracker bool, maxFrames int, seed uint64) *Session {
	return &Session{
		Source: v, Graph: VIPGraph(det, fall, est, place, 0, useTracker),
		FrameFPS: 10, MaxFrames: maxFrames, Seed: seed,
	}
}

func mustRun(t *testing.T, s *Session) StreamResult {
	t.Helper()
	res, err := s.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunEdgePipeline(t *testing.T) {
	det, fall, est := buildStack(t)
	s := vipSession(testVideo(), det, fall, est, EdgePlacement(device.OrinAGX, models.V8Medium), false, 15, 1)
	s.EdgeRTTms = 20
	res := mustRun(t, s)
	if len(res.Frames) != 15 {
		t.Fatalf("frames processed %d", len(res.Frames))
	}
	if res.DetectionRate < 0.8 {
		t.Fatalf("detection rate %.2f too low", res.DetectionRate)
	}
	// No fall in this video: no fall alerts expected.
	for _, a := range res.Alerts {
		if a.Kind == AlertFall {
			t.Fatalf("spurious fall alert: %+v", a)
		}
	}
	if res.E2E.N == 0 || res.E2E.MedianMS <= 0 {
		t.Fatal("no latency summary")
	}
}

func TestEdgeVsWorkstationLatency(t *testing.T) {
	det, fall, est := buildStack(t)
	mk := func(place map[StageID]Placement, rttMS float64) StreamResult {
		s := vipSession(testVideo(), det, fall, est, place, false, 10, 2)
		s.EdgeRTTms = rttMS
		return mustRun(t, s)
	}
	// x-large detector on nx misses every 100 ms deadline; the hybrid
	// (workstation detector) recovers.
	slow := mk(EdgePlacement(device.XavierNX, models.V8XLarge), 0)
	hybrid := mk(HybridPlacement(device.XavierNX, models.V8XLarge), 20)
	if slow.DeadlineOK > 0.1 {
		t.Fatalf("nx x-large met %.0f%% of deadlines, expected ≈0", slow.DeadlineOK*100)
	}
	if hybrid.E2E.MedianMS >= slow.E2E.MedianMS {
		t.Fatalf("hybrid (%.0f ms) not faster than edge-only (%.0f ms)",
			hybrid.E2E.MedianMS, slow.E2E.MedianMS)
	}
}

func TestFallAlertFires(t *testing.T) {
	det, fall, _ := buildStack(t)
	// A video whose VIP is fallen throughout: construct via a scene-level
	// video by rendering dataset-like frames isn't supported by the video
	// package, so use a custom spec with Fallen pose injected through the
	// scene directly.
	// Sanity: walking video produces no fall alerts (checked above), so
	// validate the classifier path directly on a fallen scene frame.
	cam := scene.DefaultCamera(320, 240, 1.6)
	s := &scene.Scene{
		Background: scene.Footpath, Lighting: 1.0, CamHeightM: 1.6, Seed: 77,
		Entities: []scene.Entity{{
			Kind: scene.VIP, X: 0, Depth: 5, HeightM: 1.7, Pose: scene.Fallen,
			Shirt: [3]uint8{60, 60, 160}, Pants: [3]uint8{40, 40, 60},
		}},
	}
	im, _ := scene.Render(s, cam)
	boxes := det.Detect(im)
	if len(boxes) == 0 {
		t.Skip("fallen vest not detected at this seed; fall path untestable")
	}
	pb := expandToPerson(boxes[0].Rect, im.W, im.H)
	estm, ok := pose.Analyze(im, pb)
	if !ok {
		t.Fatal("pose analysis failed on fallen frame")
	}
	if !fall.IsFallen(estm) {
		t.Fatalf("fall not classified: features %v", estm.Features())
	}
}

func TestVIPLostAlert(t *testing.T) {
	det, fall, est := buildStack(t)
	// A video with no VIP: replace entities via spec trickery is not
	// possible, so run on a pedestrian-only scene through ScoreFrame
	// semantics: use a video whose VIP is far beyond detection range.
	v := video.New(video.Spec{
		ID: 2, DurationSec: 1, FPS: 30, W: 320, H: 240,
		Background: scene.RoadSide, Lighting: 0.15, Seed: 5, // near-dark
	})
	res := mustRun(t, vipSession(v, det, fall, est, EdgePlacement(device.OrinNano, models.V8Nano), false, 5, 4))
	lost := 0
	for _, a := range res.Alerts {
		if a.Kind == AlertVIPLost {
			lost++
		}
	}
	// Nano without contrast normalisation in a 0.15-lighting scene should
	// lose the VIP at least sometimes; if it never does, the alert path
	// is untested (but detection that good is not a failure).
	if lost == 0 && res.DetectionRate == 1 {
		t.Log("nano detected VIP in all near-dark frames; alert path exercised elsewhere")
	}
	if lost > 0 && res.DetectionRate == 1 {
		t.Fatal("alerts inconsistent with detection rate")
	}
}

func TestStageAndAlertStrings(t *testing.T) {
	if StageDetect.String() != "detect" || StagePose.String() != "pose" || StageDepth.String() != "depth" {
		t.Fatal("stage names")
	}
	if AlertVIPLost.String() != "vip-lost" || AlertFall.String() != "fall" || AlertObstacle.String() != "obstacle" {
		t.Fatal("alert names")
	}
}

func TestPlacementHelpers(t *testing.T) {
	p := EdgePlacement(device.OrinAGX, models.V11Medium)
	if p[StageDetect].Device != device.OrinAGX || p[StagePose].Model != models.Bodypose {
		t.Fatalf("edge placement %+v", p)
	}
	h := HybridPlacement(device.OrinNano, models.V8XLarge)
	if h[StageDetect].Device != device.RTX4090 || h[StageDepth].Device != device.OrinNano {
		t.Fatalf("hybrid placement %+v", h)
	}
}

func TestExpandToPerson(t *testing.T) {
	r := expandToPerson(imgproc.Rect{X0: 40, Y0: 40, X1: 60, Y1: 60}, 320, 240)
	if r.Y0 >= 40 || r.Y1 <= 60 {
		t.Fatalf("expansion too small: %+v", r)
	}
	// Clamped at image bounds.
	r2 := expandToPerson(imgproc.Rect{X0: 0, Y0: 0, X1: 10, Y1: 10}, 320, 240)
	if r2.X0 < 0 || r2.Y0 < 0 {
		t.Fatalf("expansion not clamped: %+v", r2)
	}
}

func TestTrackerBridgesDropouts(t *testing.T) {
	det, fall, est := buildStack(t)
	// Dim video: the medium detector (with contrast normalisation)
	// still sees most frames, but any misses should be bridged.
	v := video.New(video.Spec{
		ID: 3, DurationSec: 2, FPS: 30, W: 320, H: 240,
		Background: scene.Footpath, Lighting: 0.5, Seed: 21,
	})
	place := EdgePlacement(device.OrinAGX, models.V8Medium)
	base := mustRun(t, vipSession(v, det, fall, est, place, false, 15, 5))
	tracked := mustRun(t, vipSession(v, det, fall, est, place, true, 15, 5))
	if tracked.DetectionRate < base.DetectionRate {
		t.Fatalf("tracker reduced coverage: %.2f vs %.2f", tracked.DetectionRate, base.DetectionRate)
	}
	// Tracked runs never raise more vip-lost alerts than raw runs.
	count := func(r StreamResult) int {
		n := 0
		for _, a := range r.Alerts {
			if a.Kind == AlertVIPLost {
				n++
			}
		}
		return n
	}
	if count(tracked) > count(base) {
		t.Fatalf("tracker added vip-lost alerts: %d vs %d", count(tracked), count(base))
	}
}
