package pipeline

import (
	"testing"

	"ocularone/internal/device"
	"ocularone/internal/models"
)

func engineStudySession(seed uint64, eng device.Engine, placer PlacementPolicy) *Session {
	return &Session{
		ID: 0, Frames: 40, FrameFPS: 10,
		Policy: QueuePolicy{},
		Seed:   seed,
		Graph:  TimingVIPGraph(EdgePlacement(device.OrinNano, models.V8Medium)),
		Engine: eng,
		Placer: placer,
	}
}

// TestEnginePolicyZeroValueReplay pins the compatibility contract: the
// zero-value engine replays the interpreted schedule and compiles
// nothing. The engine is one value per session and its zero value is
// Interpreted, so the schedule comparison compares a config with
// itself; the TestSessionGolden* goldens pin interpreted schedules.
// Only the no-compile check still tests something.
func TestEnginePolicyZeroValueReplay(t *testing.T) {
	base, err := engineStudySession(11, device.Interpreted, nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	var eng device.Engine
	zero, err := engineStudySession(11, eng, nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Frames) != len(zero.Frames) {
		t.Fatalf("frame counts differ: %d vs %d", len(base.Frames), len(zero.Frames))
	}
	for i := range base.Frames {
		if base.Frames[i].E2EMS != zero.Frames[i].E2EMS {
			t.Fatalf("frame %d: zero-value engine policy changed E2E %v -> %v",
				i, base.Frames[i].E2EMS, zero.Frames[i].E2EMS)
		}
	}
	if base.PlanCompiles != 0 || zero.PlanCompiles != 0 {
		t.Fatalf("interpreted runs recorded plan compiles: %d, %d", base.PlanCompiles, zero.PlanCompiles)
	}
}

// TestPlannedSessionCompilesOncePerStage asserts each planned stage
// pays exactly one compile across the whole stream — the plan is
// reused across every subsequent frame and wave — and that the
// steady-state frames come out faster than the interpreted schedule.
func TestPlannedSessionCompilesOncePerStage(t *testing.T) {
	planned, err := engineStudySession(12, device.Planned, nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	if planned.PlanCompiles != 3 {
		t.Fatalf("planned session compiled %d times, want 3 (once per stage)", planned.PlanCompiles)
	}
	interp, err := engineStudySession(12, device.Interpreted, nil).Run()
	if err != nil {
		t.Fatal(err)
	}
	// Compare the steady-state tail (the first frames absorb compiles).
	pf, inf := planned.Frames, interp.Frames
	if len(pf) == 0 || len(pf) != len(inf) {
		t.Fatalf("frame counts differ: %d vs %d", len(pf), len(inf))
	}
	lastP := pf[len(pf)-1].E2EMS
	lastI := inf[len(inf)-1].E2EMS
	if lastP >= lastI {
		t.Fatalf("steady-state planned frame %.1fms not faster than interpreted %.1fms", lastP, lastI)
	}
}

// hopPlacer re-places the detect stage onto a new device once, at a
// fixed frame index.
type hopPlacer struct {
	at    int
	seen  int
	moved bool
	to    Placement
}

func (h *hopPlacer) Rebind(stat FrameStat) map[string]Placement {
	h.seen++
	if h.moved || h.seen < h.at {
		return nil
	}
	h.moved = true
	return map[string]Placement{"detect": h.to}
}

// TestPlannedRecompileOnRebind asserts a live re-placement of a
// planned stage triggers exactly one recompile on the new placement:
// every stage of a planned session compiles once, and the re-placed
// detect stage once more.
func TestPlannedRecompileOnRebind(t *testing.T) {
	placer := &hopPlacer{at: 10, to: Placement{Device: device.OrinAGX, Model: models.V8Medium}}
	res, err := engineStudySession(13, device.Planned, placer).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !placer.moved {
		t.Fatal("placer never fired")
	}
	if res.Rebinds != 1 {
		t.Fatalf("rebinds %d, want 1", res.Rebinds)
	}
	if res.PlanCompiles != 3+1 {
		t.Fatalf("plan compiles %d, want 4 (one per stage + post-rebind)", res.PlanCompiles)
	}
}

// TestFleetBatchesPlannedUniformly asserts a planned fleet still
// coalesces full batches on the shared workstation (engine is part of
// the compatibility key, so a uniformly planned fleet batches exactly
// as an interpreted one).
func TestFleetBatchesPlannedUniformly(t *testing.T) {
	mk := func(eng device.Engine) *Fleet {
		sessions := make([]*Session, 4)
		for i := range sessions {
			place := HybridPlacement(device.OrinNano, models.V8XLarge)
			sessions[i] = &Session{
				ID: i, Frames: 30, FrameFPS: 10,
				Policy:   QueuePolicy{},
				Seed:     100 + uint64(i)*211,
				OffsetMS: float64(i) * 2,
				Graph:    TimingVIPGraph(place),
				Engine:   eng,
			}
		}
		return &Fleet{Sessions: sessions, SharedSeed: 9, Batch: BatchPolicy{MaxBatch: 4, WindowMS: 60}}
	}
	planned, err := mk(device.Planned).Run()
	if err != nil {
		t.Fatal(err)
	}
	interp, err := mk(device.Interpreted).Run()
	if err != nil {
		t.Fatal(err)
	}
	var pSum, iSum float64
	for i := range planned {
		pSum += planned[i].E2E.MedianMS
		iSum += interp[i].E2E.MedianMS
	}
	if pSum >= iSum {
		t.Fatalf("planned fleet median sum %.1f not below interpreted %.1f", pSum, iSum)
	}
	for _, r := range planned {
		if r.PlanCompiles != 3 {
			t.Fatalf("session %d compiled %d plans, want 3", r.Session, r.PlanCompiles)
		}
	}
}
