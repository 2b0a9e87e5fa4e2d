package track

import (
	"testing"

	"ocularone/internal/detect"
)

func TestMultiTrackerSpawnsPerTarget(t *testing.T) {
	m := NewMulti(Config{MaxCoastFrames: 2})
	tracks := m.Update([]detect.Box{
		boxAt(50, 50, 20, 20, 0.9),
		boxAt(200, 50, 20, 20, 0.8),
		boxAt(120, 150, 20, 20, 0.7),
	})
	if len(tracks) != 3 {
		t.Fatalf("tracks %d, want 3", len(tracks))
	}
	ids := map[int]bool{}
	for _, tr := range tracks {
		if ids[tr.ID] {
			t.Fatal("duplicate track id")
		}
		ids[tr.ID] = true
		if tr.State != Locked {
			t.Fatalf("fresh track state %v", tr.State)
		}
	}
}

func TestMultiTrackerIdentityAcrossFrames(t *testing.T) {
	m := NewMulti(Config{MaxCoastFrames: 3})
	m.Update([]detect.Box{boxAt(50, 50, 20, 20, 0.9), boxAt(200, 50, 20, 20, 0.8)})
	first := m.Live()
	// Both targets move right 5 px; identities must persist.
	tracks := m.Update([]detect.Box{boxAt(55, 50, 20, 20, 0.9), boxAt(205, 50, 20, 20, 0.8)})
	if len(tracks) != 2 {
		t.Fatalf("tracks %d", len(tracks))
	}
	for i, tr := range tracks {
		if tr.ID != first[i].ID {
			t.Fatalf("identity switched: %d vs %d", tr.ID, first[i].ID)
		}
	}
}

func TestMultiTrackerCoastAndRetire(t *testing.T) {
	m := NewMulti(Config{MaxCoastFrames: 2})
	m.Update([]detect.Box{boxAt(50, 50, 20, 20, 0.9)})
	// Silence: coast for the budget, then retire.
	m.Update(nil)
	if m.Count() != 1 || m.Live()[0].State != Coasting {
		t.Fatalf("expected coasting track, have %d (%v)", m.Count(), m.Live())
	}
	m.Update(nil)
	m.Update(nil)
	if m.Count() != 0 {
		t.Fatalf("lost track not retired: %d live", m.Count())
	}
}

func TestMultiTrackerNoIdentitySteal(t *testing.T) {
	m := NewMulti(Config{MaxCoastFrames: 3})
	m.Update([]detect.Box{boxAt(50, 50, 20, 20, 0.9)})
	id0 := m.Live()[0].ID
	// A detection far away must spawn a new track, not move the old one.
	tracks := m.Update([]detect.Box{boxAt(250, 200, 20, 20, 0.95)})
	if len(tracks) != 2 {
		t.Fatalf("tracks %d, want 2 (coast + new)", len(tracks))
	}
	for _, tr := range tracks {
		if tr.ID == id0 && tr.State != Coasting {
			t.Fatalf("original track %v, want coasting", tr.State)
		}
	}
}

func TestMultiTrackerGreedyPrefersBestOverlap(t *testing.T) {
	m := NewMulti(Config{MaxCoastFrames: 3})
	m.Update([]detect.Box{boxAt(100, 100, 30, 30, 0.9)})
	id0 := m.Live()[0].ID
	// Two candidates: one barely overlapping, one on target. The track
	// must take the on-target one; the other spawns a new track.
	tracks := m.Update([]detect.Box{
		boxAt(118, 100, 30, 30, 0.9), // IoU ≈ 0.25 with prediction
		boxAt(101, 100, 30, 30, 0.9), // IoU ≈ 0.9
	})
	if len(tracks) != 2 {
		t.Fatalf("tracks %d", len(tracks))
	}
	for _, tr := range tracks {
		if tr.ID == id0 {
			// At the tracker's smoothing the on-target match leaves the
			// box centred at 100 and the wrong one at 110.
			cx, _ := tr.Box.Center()
			if cx > 105 {
				t.Fatalf("track associated with the wrong detection: centre %v", cx)
			}
		}
	}
}

// Count returns the number of live tracks.
func (m *MultiTracker) Count() int { return len(m.tracks) }
