package bench

import (
	"math"
	"testing"

	"ocularone/internal/pipeline"
)

// TestSummarizeFleet checks the one fleet tally against a hand-computed
// two-session fixture: staggered offsets, one dropped frame, one
// deadline miss.
//
//	session 0 (offset 0, 10 FPS):  frame 0 arrives 0 → done 50; frame 1
//	  arrives 100 → done 220 (misses the 100 ms period); frame 2 dropped
//	session 1 (offset 50, 10 FPS): frame 0 arrives 50 → done 90; frame 2
//	  arrives 250 → done 310
//
// Makespan 0 → 310 ms for 4 served frames; latencies 40, 50, 60, 120.
func TestSummarizeFleet(t *testing.T) {
	fleet := &pipeline.Fleet{Sessions: []*pipeline.Session{
		{FrameFPS: 10},
		{FrameFPS: 10, OffsetMS: 50},
	}}
	results := []pipeline.StreamResult{
		{Frames: []pipeline.FrameStat{
			{FrameIndex: 0, E2EMS: 50, Deadline: true},
			{FrameIndex: 1, E2EMS: 120},
		}, Dropped: 1, PlanCompiles: 3},
		{Frames: []pipeline.FrameStat{
			{FrameIndex: 0, E2EMS: 40, Deadline: true},
			{FrameIndex: 2, E2EMS: 60, Deadline: true},
		}, PlanCompiles: 2},
	}
	got := SummarizeFleet(fleet, results)
	near := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if got.Frames != 4 || got.Dropped != 1 || got.PlanCompiles != 5 {
		t.Errorf("frames %d dropped %d compiles %d, want 4 / 1 / 5", got.Frames, got.Dropped, got.PlanCompiles)
	}
	near("FPS", got.FPS, 4/310.0*1e3)
	near("DeadlinePct", got.DeadlinePct, 75)
	near("DroppedPct", got.DroppedPct, 20)
	near("median", got.E2E.MedianMS, 55)
	near("p95", got.E2E.P95MS, 60+0.85*60) // rank 0.95·3 = 2.85 between 60 and 120
	near("max", got.E2E.MaxMS, 120)

	// Nothing served: zeros, never NaN (inferbench -drones 1 -frames 0).
	for name, empty := range map[string]FleetSummary{
		"no sessions": SummarizeFleet(&pipeline.Fleet{}, nil),
		"no frames":   SummarizeFleet(fleet, []pipeline.StreamResult{{}, {}}),
	} {
		if empty != (FleetSummary{}) {
			t.Errorf("%s: summary %+v, want all zeros", name, empty)
		}
	}
}
