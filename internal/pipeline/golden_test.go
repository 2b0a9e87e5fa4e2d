package pipeline

import (
	"math"
	"testing"

	"ocularone/internal/device"
	"ocularone/internal/models"
	"ocularone/internal/serve"
	"ocularone/internal/temporal"
)

// The golden values below were captured from the pre-batching scheduler
// (PR 1's execEnv.runFrame loop) and verified byte-identical against
// the unified groupRunner before the legacy path was deleted. They pin
// the "batching off replays legacy semantics bit-for-bit" guarantee
// against regressions that would shift EVERY configuration at once —
// something comparing batched-off against MaxBatch=1 (both the same
// code path now) cannot catch.

type goldenFleetRow struct {
	session, frames, dropped, depthSkips int
	medianMS, p95MS, maxMS               float64
}

func checkGolden(t *testing.T, rs []StreamResult, want []goldenFleetRow) {
	t.Helper()
	if len(rs) != len(want) {
		t.Fatalf("%d sessions, want %d", len(rs), len(want))
	}
	const tol = 1e-6 // float tolerance: ulp-safe across platforms, far below any scheduling shift
	for i, w := range want {
		r := rs[i]
		if r.Session != w.session || len(r.Frames) != w.frames || r.Dropped != w.dropped ||
			r.StageSkips["depth"] != w.depthSkips {
			t.Fatalf("session %d accounting {%d %d %d %d}, want {%d %d %d %d}",
				i, r.Session, len(r.Frames), r.Dropped, r.StageSkips["depth"],
				w.session, w.frames, w.dropped, w.depthSkips)
		}
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"median", r.E2E.MedianMS, w.medianMS},
			{"p95", r.E2E.P95MS, w.p95MS},
			{"max", r.E2E.MaxMS, w.maxMS},
		} {
			if math.Abs(c.got-c.want) > tol {
				t.Fatalf("session %d %s %.6fms, want %.6fms", i, c.name, c.got, c.want)
			}
		}
	}
}

// TestFleetGoldenDropPolicy pins the drop-when-busy fleet: FIFO
// admission starves the later-offset drones entirely.
func TestFleetGoldenDropPolicy(t *testing.T) {
	rs, err := testFleet(3, 77).Run()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rs, []goldenFleetRow{
		{0, 40, 0, 17, 200.757999, 265.649686, 269.669328},
		{1, 0, 40, 0, 0, 0, 0},
		{2, 0, 40, 0, 0, 0, 0},
	})
}

// TestFleetGoldenQueueBudget pins the bounded-queue fleet: every drone
// processes all frames at higher latency, shedding only stale depth
// work.
func TestFleetGoldenQueueBudget(t *testing.T) {
	sessions := make([]*Session, 3)
	for i := range sessions {
		sessions[i] = &Session{
			ID: i, Frames: 40, FrameFPS: 10, EdgeRTTms: 25,
			Policy: QueuePolicy{BudgetMS: 250}, Seed: 101 + uint64(i)*17, OffsetMS: float64(i) * 3,
			Graph: TimingVIPGraph(HybridPlacement(device.OrinNano, models.V8XLarge)),
		}
	}
	rs, err := (&Fleet{Sessions: sessions, SharedSeed: 77}).Run()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, rs, []goldenFleetRow{
		{0, 40, 0, 17, 317.338559, 394.885937, 404.308255},
		{1, 40, 0, 16, 356.498579, 412.044046, 437.685485},
		{2, 40, 0, 17, 367.889743, 428.384316, 430.971577},
	})
}

// The standalone-session goldens below were captured from the
// two-loop scheduler (Session.Run with analytics inline, next to
// Fleet.Run's replay) before the two were made one. Each pins the
// accounting, the latency summary, the sum of every processed frame's
// E2E (so a shift in any one frame shows) and the ladder and plan
// counters.

type goldenSessionRow struct {
	goldenFleetRow
	poseSkips                                       int
	sumMS                                           float64
	compiles, bridged, roi, early, forced, dblSkips int
}

func checkSessionGolden(t *testing.T, s *Session, want goldenSessionRow) {
	t.Helper()
	r, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, []StreamResult{r}, []goldenFleetRow{want.goldenFleetRow})
	var sum float64
	for _, f := range r.Frames {
		sum += f.E2EMS
	}
	got := goldenSessionRow{
		goldenFleetRow: want.goldenFleetRow,
		poseSkips:      r.StageSkips["pose"], sumMS: want.sumMS,
		compiles: r.PlanCompiles, bridged: r.Bridged, roi: r.ROIFrames,
		early: r.EarlyExitFrames, forced: int(r.ForcedRefreshes), dblSkips: r.DoubleSkips,
	}
	if got != want {
		t.Fatalf("counters %+v, want %+v", got, want)
	}
	if math.Abs(sum-want.sumMS) > 1e-6 {
		t.Fatalf("E2E sum %.6fms, want %.6fms", sum, want.sumMS)
	}
}

// goldenSession is a timing-only standalone stream at 40 fps: the
// x-large detector on the session's own workstation keeps up, the
// Orin Nano carrying pose and depth does not.
func goldenSession(pol Policy, batch BatchPolicy) *Session {
	return &Session{
		Frames: 40, FrameFPS: 40, EdgeRTTms: 25, Seed: 31, Policy: pol, Batch: batch,
		Graph: TimingVIPGraph(HybridPlacement(device.OrinNano, models.V8XLarge)),
	}
}

var goldenBatch = BatchPolicy{MaxBatch: 4, WindowMS: 60}

func TestSessionGoldenDropPolicy(t *testing.T) {
	checkSessionGolden(t, goldenSession(DropPolicy{}, BatchPolicy{}),
		goldenSessionRow{goldenFleetRow{0, 36, 4, 36, 85.868073, 97.071987, 100.310988}, 8, 2789.938357, 0, 0, 0, 0, 0, 0})
}

func TestSessionGoldenDropPolicyBatched(t *testing.T) {
	checkSessionGolden(t, goldenSession(DropPolicy{}, goldenBatch),
		goldenSessionRow{goldenFleetRow{0, 30, 10, 30, 142.114702, 181.466134, 192.744218}, 0, 4330.941882, 0, 0, 0, 0, 0, 0})
}

func TestSessionGoldenQueueBudget(t *testing.T) {
	checkSessionGolden(t, goldenSession(QueuePolicy{BudgetMS: 250}, BatchPolicy{}),
		goldenSessionRow{goldenFleetRow{0, 40, 0, 37, 309.192980, 331.911463, 423.343995}, 15, 8583.955582, 0, 0, 0, 0, 0, 0})
}

func TestSessionGoldenQueueBudgetBatched(t *testing.T) {
	checkSessionGolden(t, goldenSession(QueuePolicy{BudgetMS: 250}, goldenBatch),
		goldenSessionRow{goldenFleetRow{0, 40, 0, 31, 340.560898, 573.834504, 606.382265}, 13, 11878.809251, 0, 0, 0, 0, 0, 0})
}

func TestSessionGoldenStaleSkip(t *testing.T) {
	checkSessionGolden(t, goldenSession(StaleSkipPolicy{}, BatchPolicy{}),
		goldenSessionRow{goldenFleetRow{0, 40, 0, 40, 86.445610, 105.205151, 112.435635}, 12, 3123.032784, 0, 0, 0, 0, 0, 0})
}

func TestSessionGoldenStaleSkipBatched(t *testing.T) {
	checkSessionGolden(t, goldenSession(StaleSkipPolicy{}, goldenBatch),
		goldenSessionRow{goldenFleetRow{0, 40, 0, 40, 143.391409, 181.115402, 192.815327}, 1, 5719.914313, 0, 0, 0, 0, 0, 0})
}

// TestSessionGoldenLadderOutageTrace pins the three session layers no
// program sets, together: the temporal ladder, a root-device outage
// and a bursty open-loop arrival trace.
func TestSessionGoldenLadderOutageTrace(t *testing.T) {
	tr := serve.Traffic{RatePerSec: 10, Tenants: 1, BurstMult: 6, BurstOnMS: 400, BurstOffMS: 1600, Seed: 5}
	s := &Session{
		Frames: 60, FrameFPS: 10, Seed: 5, EdgeRTTms: 25,
		Policy:     StaleSkipPolicy{},
		Graph:      TimingVIPGraph(EdgePlacement(device.OrinNano, models.V8Nano)),
		ArrivalsMS: tr.ArrivalTrace(0, 50),
		Outages:    []Outage{{Device: device.OrinNano, FromMS: 1000, ToMS: 2500}},
		Temporal:   temporal.Layer{Enabled: true},
	}
	checkSessionGolden(t, s,
		goldenSessionRow{goldenFleetRow{0, 60, 0, 44, 0.500000, 1778.741352, 1879.792571}, 44, 18234.432412, 0, 44, 2, 5, 5, 88})
}

// TestSessionGoldenPlanned pins a session with every stage planned:
// three compiles, then the plan gain on every later frame.
func TestSessionGoldenPlanned(t *testing.T) {
	s := goldenSession(QueuePolicy{BudgetMS: 250}, BatchPolicy{})
	s.Engine = device.Planned
	checkSessionGolden(t, s,
		goldenSessionRow{goldenFleetRow{0, 40, 0, 36, 295.726879, 377.938639, 472.406754}, 15, 8655.960473, 3, 0, 0, 0, 0, 0})
}
