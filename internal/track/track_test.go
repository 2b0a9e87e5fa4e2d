package track

import (
	"math"
	"testing"
	"testing/quick"

	"ocularone/internal/detect"
	"ocularone/internal/imgproc"
)

func boxAt(cx, cy, w, h int, score float64) detect.Box {
	return detect.Box{
		Rect:  imgproc.Rect{X0: cx - w/2, Y0: cy - h/2, X1: cx + w/2, Y1: cy + h/2},
		Score: score,
	}
}

func TestAcquireAndLock(t *testing.T) {
	tr := New(Config{})
	if tr.State() != Empty {
		t.Fatal("not empty at start")
	}
	if st := tr.Update([]detect.Box{boxAt(100, 100, 30, 30, 0.8)}); st != Locked {
		t.Fatalf("state %v after detection", st)
	}
	b, ok := tr.Box()
	if !ok {
		t.Fatal("no box when locked")
	}
	cx, cy := b.Center()
	if math.Abs(cx-100) > 2 || math.Abs(cy-100) > 2 {
		t.Fatalf("box centre %v,%v", cx, cy)
	}
	if tr.Confidence() != 0.8 {
		t.Fatalf("confidence %v", tr.Confidence())
	}
}

func TestEmptyUpdateStaysEmpty(t *testing.T) {
	tr := New(Config{})
	if st := tr.Update(nil); st != Empty {
		t.Fatalf("state %v", st)
	}
	if _, ok := tr.Box(); ok {
		t.Fatal("box on empty tracker")
	}
}

func TestCoastThroughDropout(t *testing.T) {
	tr := New(Config{MaxCoastFrames: 3})
	// Target moving right 10 px/frame.
	for i := 0; i < 5; i++ {
		tr.Update([]detect.Box{boxAt(100+10*i, 100, 30, 30, 0.9)})
	}
	// Dropout: the tracker must extrapolate the motion.
	if st := tr.Update(nil); st != Coasting {
		t.Fatalf("state %v on first miss", st)
	}
	b, ok := tr.Box()
	if !ok {
		t.Fatal("no box while coasting")
	}
	cx, _ := b.Center()
	if cx < 142 || cx > 162 {
		t.Fatalf("coasted centre %v, want ≈150+velocity", cx)
	}
	if tr.Confidence() >= 0.9 {
		t.Fatal("confidence did not decay while coasting")
	}
	// Reacquire.
	if st := tr.Update([]detect.Box{boxAt(160, 100, 30, 30, 0.85)}); st != Locked {
		t.Fatalf("state %v on reacquire", st)
	}
}

func TestLostAfterCoastBudget(t *testing.T) {
	tr := New(Config{MaxCoastFrames: 2})
	tr.Update([]detect.Box{boxAt(50, 50, 20, 20, 0.9)})
	states := []State{}
	for i := 0; i < 4; i++ {
		states = append(states, tr.Update(nil))
	}
	if states[0] != Coasting || states[1] != Coasting {
		t.Fatalf("coast states %v", states)
	}
	if states[2] != Lost {
		t.Fatalf("not lost after budget: %v", states)
	}
	if _, ok := tr.Box(); ok {
		t.Fatal("box reported after loss")
	}
	// A fresh detection re-acquires from Lost.
	if st := tr.Update([]detect.Box{boxAt(200, 200, 20, 20, 0.7)}); st != Locked {
		t.Fatalf("no reacquisition from lost: %v", st)
	}
}

func TestGateRejectsDistantDetections(t *testing.T) {
	tr := New(Config{MaxCoastFrames: 5})
	tr.Update([]detect.Box{boxAt(100, 100, 30, 30, 0.9)})
	// A high-scoring detection across the frame must not steal the track.
	st := tr.Update([]detect.Box{boxAt(300, 300, 30, 30, 0.99)})
	if st != Coasting {
		t.Fatalf("state %v: distant detection accepted", st)
	}
	b, _ := tr.Box()
	cx, _ := b.Center()
	if cx > 150 {
		t.Fatalf("track jumped to %v", cx)
	}
}

func TestSmoothingDampsJitter(t *testing.T) {
	tr := New(Config{})
	tr.Update([]detect.Box{boxAt(100, 100, 30, 30, 0.9)})
	// Jittered detection at +20 px: smoothed centre moves only partway,
	// smoothing x 20 = 12 px.
	tr.Update([]detect.Box{boxAt(120, 100, 30, 30, 0.9)})
	b, _ := tr.Box()
	cx, _ := b.Center()
	if cx != 100+smoothing*20 {
		t.Fatalf("smoothed centre %v, want %v", cx, 100+smoothing*20)
	}
}

func TestStateStrings(t *testing.T) {
	if Empty.String() != "empty" || Locked.String() != "locked" ||
		Coasting.String() != "coasting" || Lost.String() != "lost" {
		t.Fatal("state names")
	}
}

func TestEffectiveRecall(t *testing.T) {
	// Coast budget 0: recall unchanged.
	if got := EffectiveRecall(0.9, 0); math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("k=0 recall %v", got)
	}
	// Budget 1 bridges single misses: 1-(1-r)² = 0.99.
	if got := EffectiveRecall(0.9, 1); math.Abs(got-0.99) > 1e-9 {
		t.Fatalf("k=1 recall %v", got)
	}
	// Monotone in k.
	prev := 0.0
	for k := 0; k < 10; k++ {
		r := EffectiveRecall(0.8, k)
		if r <= prev {
			t.Fatalf("recall not increasing at k=%d", k)
		}
		prev = r
	}
	if EffectiveRecall(0, 5) != 0 || EffectiveRecall(1, 5) != 1 {
		t.Fatal("boundary recalls wrong")
	}
}

// Property: after any detection sequence, confidence stays in [0,1] and
// Box() is consistent with State().
func TestQuickTrackerInvariants(t *testing.T) {
	f := func(moves []uint8) bool {
		tr := New(Config{MaxCoastFrames: 3})
		for _, m := range moves {
			if m%3 == 0 {
				tr.Update(nil)
			} else {
				tr.Update([]detect.Box{boxAt(int(m)*2, int(m), 20, 20, float64(m%10)/10+0.05)})
			}
			if tr.Confidence() < 0 || tr.Confidence() > 1 {
				return false
			}
			_, ok := tr.Box()
			hasTarget := tr.State() == Locked || tr.State() == Coasting
			if ok != hasTarget {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// EffectiveRecall is a closed-form estimate of the recall a tracker with
// coast budget k achieves over a detector with per-frame recall r,
// assuming independent misses: a frame counts as covered unless it is
// preceded by ≥k consecutive misses. Used by the tracking ablation bench.
func EffectiveRecall(r float64, k int) float64 {
	if r <= 0 {
		return 0
	}
	if r >= 1 {
		return 1
	}
	// A frame is uncovered iff the detector misses it and the k frames
	// before it (the track coasted out): probability (1-r)^(k+1).
	return 1 - math.Pow(1-r, float64(k+1))
}
