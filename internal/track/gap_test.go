package track

import (
	"math"
	"testing"

	"ocularone/internal/dataset"
	"ocularone/internal/detect"
	"ocularone/internal/models"
	"ocularone/internal/scene"
	"ocularone/internal/video"
)

// gapFixture renders a short drone video and trains a detector — the
// shared setup of the chaos-gap tests. Frames are rendered on demand
// under a per-frame condition so dropout windows can pair with the
// degraded conditions of the chaos study (occlusion, night).
type gapFixture struct {
	v   *video.Video
	det *detect.Detector
}

func newGapFixture(t *testing.T) *gapFixture {
	t.Helper()
	ds := dataset.Build(dataset.Config{Scale: 0.015, Seed: 42, W: 320, H: 240})
	det := detect.TrainDataset(detect.TierFor(models.YOLOv8, models.Medium), ds.StratifiedSplit(0.2).Train)
	v := video.New(video.Spec{
		ID: 1, DurationSec: 4, FPS: 10, W: 320, H: 240,
		Background: scene.Footpath, Lighting: 1.0, Seed: 99,
	})
	return &gapFixture{v: v, det: det}
}

// frame renders frame i under the given condition.
func (f *gapFixture) frame(i int, cond scene.Condition) (*scene.GroundTruth, []detect.Box) {
	s, cam := f.v.SceneAt(i)
	s.Condition = cond
	im, gt := scene.Render(s, cam)
	return gt, f.det.Detect(im)
}

// gapCondition returns the chaos schedule of the gap run: two dropout
// bursts — an occlusion window and a night window — during which the
// detect stream is cut (the serve-tier dropout regime seen from the
// tracker's side), with the matching scene degradation applied.
func gapCondition(i int) (scene.Condition, bool) {
	switch {
	case i >= 10 && i < 14:
		return scene.Occlusion, true
	case i >= 22 && i < 26:
		return scene.Night, true
	}
	return scene.Clear, false
}

// vipTrack returns the live track closest to the truth vest centre.
func vipTrack(tracks []Track, gt *scene.GroundTruth) (Track, bool) {
	cx, cy := gt.VestBox.Center()
	best, bestD := Track{}, math.Inf(1)
	for _, tr := range tracks {
		tx, ty := tr.Box.Center()
		if d := math.Hypot(tx-cx, ty-cy); d < bestD {
			best, bestD = tr, d
		}
	}
	return best, !math.IsInf(bestD, 1)
}

// TestMultiTrackerChaosGapIDStability: across chaos-injected detection
// gaps under occlusion and night conditions, the VIP keeps one track
// identity — the tracker coasts through each burst instead of retiring
// and re-spawning a new ID.
func TestMultiTrackerChaosGapIDStability(t *testing.T) {
	f := newGapFixture(t)
	m := NewMulti(Config{MaxCoastFrames: 6})
	vipID := -1
	for i := 0; i < 32; i++ {
		cond, gap := gapCondition(i)
		gt, boxes := f.frame(i, cond)
		if gap {
			boxes = nil // chaos dropout: detections never arrive
		}
		tracks := m.Update(boxes)
		tr, ok := vipTrack(tracks, gt)
		if !ok {
			if i > 2 {
				t.Fatalf("frame %d: VIP track lost entirely", i)
			}
			continue
		}
		if vipID == -1 {
			vipID = tr.ID
		} else if tr.ID != vipID {
			t.Fatalf("frame %d: VIP identity switched %d -> %d", i, vipID, tr.ID)
		}
		if gap && tr.State != Coasting {
			t.Fatalf("frame %d: state %v inside dropout window, want coasting", i, tr.State)
		}
	}
	if vipID == -1 {
		t.Fatal("VIP never acquired")
	}
}

// TestMultiTrackerChaosGapBoundedDrift: during the dropout bursts the
// coasted prediction must stay near the moving VIP — its centre error
// is bounded by a small constant over the continuous-detection run's
// worst error, and the prediction still overlaps the person.
func TestMultiTrackerChaosGapBoundedDrift(t *testing.T) {
	f := newGapFixture(t)
	centreErr := func(tr Track, gt *scene.GroundTruth) float64 {
		cx, cy := gt.VestBox.Center()
		tx, ty := tr.Box.Center()
		return math.Hypot(tx-cx, ty-cy)
	}

	// Continuous-detection reference: worst association error with the
	// detector running every frame.
	cont := NewMulti(Config{MaxCoastFrames: 6})
	contWorst := 0.0
	for i := 0; i < 32; i++ {
		gt, boxes := f.frame(i, scene.Clear)
		if tr, ok := vipTrack(cont.Update(boxes), gt); ok {
			if e := centreErr(tr, gt); e > contWorst {
				contWorst = e
			}
		}
	}

	m := NewMulti(Config{MaxCoastFrames: 6})
	gapWorst, gapFrames := 0.0, 0
	for i := 0; i < 32; i++ {
		cond, gap := gapCondition(i)
		gt, boxes := f.frame(i, cond)
		if gap {
			boxes = nil
		}
		tr, ok := vipTrack(m.Update(boxes), gt)
		if !ok || !gap {
			continue
		}
		gapFrames++
		if e := centreErr(tr, gt); e > gapWorst {
			gapWorst = e
		}
		if tr.Box.Intersect(gt.PersonBox).Empty() {
			t.Fatalf("frame %d: coasted box %+v drifted off the person %+v", i, tr.Box, gt.PersonBox)
		}
	}
	if gapFrames == 0 {
		t.Fatal("no coasted frames measured")
	}
	// The VIP walks gently, so a linear motion model drifts by at most a
	// few px per coasted frame on a 320x240 render.
	if gapWorst > contWorst+30 {
		t.Fatalf("coasted drift %.1f px not bounded by continuous worst %.1f px + 30", gapWorst, contWorst)
	}
}

// TestMultiTrackerGapRunsDeterministic: the whole gap scenario — render,
// detect, chaos schedule, tracking — replays identically, track IDs
// included.
func TestMultiTrackerGapRunsDeterministic(t *testing.T) {
	run := func() []int {
		f := newGapFixture(t)
		m := NewMulti(Config{MaxCoastFrames: 6})
		var ids []int
		for i := 0; i < 32; i++ {
			cond, gap := gapCondition(i)
			gt, boxes := f.frame(i, cond)
			if gap {
				boxes = nil
			}
			if tr, ok := vipTrack(m.Update(boxes), gt); ok {
				ids = append(ids, tr.ID)
			}
		}
		return ids
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("ID traces differ in length (%d vs %d)", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ID trace diverged at %d", i)
		}
	}
}
