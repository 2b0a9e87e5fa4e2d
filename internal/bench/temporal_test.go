package bench

import (
	"testing"

	"ocularone/internal/temporal"
)

// TestTemporalCurveCrossPRGates pins the two determinism gates of the
// serving half and the headline goodput claim of ISSUE 10:
//
//   - the baseline row reproduces the plain ext-serve rho=1.0
//     fingerprint (unchanged since PR 7's chaos study pinned it);
//   - dropout-shed-only reproduces PR 7's ext-chaos dropout row (frozen
//     in BENCHMARKS.md §Frozen: the pre-benchmark/ harness) —
//     fingerprint and goodput — bit for bit;
//   - dropout-ladder, differing from shed-only in exactly one knob,
//     beats its goodput.
func TestTemporalCurveCrossPRGates(t *testing.T) {
	if testing.Short() {
		t.Skip("10s serving horizon")
	}
	pts := RunTemporalCurve(42, 10_000)
	byName := map[string]TemporalPoint{}
	for _, p := range pts {
		byName[p.Regime] = p
	}

	base := byName["baseline"]
	if base.Fingerprint != "46ef51717a1bd684" {
		t.Errorf("baseline fingerprint %s, want plain rho=1.0 46ef51717a1bd684", base.Fingerprint)
	}
	if base.BridgedReqs+base.ROIReqs+base.EarlyExitReqs != 0 {
		t.Errorf("baseline shows ladder activity: %+v", base)
	}

	shed := byName["dropout-shed-only"]
	if shed.Fingerprint != "6cf6ae4bd79cd5ef" {
		t.Errorf("shed-only fingerprint %s, want PR-7 dropout 6cf6ae4bd79cd5ef", shed.Fingerprint)
	}
	if shed.GoodputPerSec != 397.46630253531373 {
		t.Errorf("shed-only goodput %v, want PR-7's 397.46630253531373", shed.GoodputPerSec)
	}

	ladder := byName["dropout-ladder"]
	if ladder.GoodputPerSec <= shed.GoodputPerSec {
		t.Errorf("ladder goodput %.2f does not beat shed-only %.2f",
			ladder.GoodputPerSec, shed.GoodputPerSec)
	}
	if ladder.BridgedReqs == 0 || ladder.ROIReqs == 0 || ladder.EarlyExitReqs == 0 {
		t.Errorf("ladder row missing degraded-tier activity: %+v", ladder)
	}
	if ladder.StaleMaxMS <= 0 {
		t.Errorf("ladder row recorded no bridged staleness: %+v", ladder)
	}

	comb := byName["combined-ladder"]
	if comb.BridgedReqs == 0 {
		t.Errorf("combined-ladder never bridged: %+v", comb)
	}
}

// TestTemporalDriftBounded runs the drift pass at CI scale and checks
// the ladder's quality loss stays inside the budgeted envelope: every
// rung exercised, staleness bounded by the bridging budget plus the
// budget-exhausted tail of a gap burst, and the tracked hit rate within
// a bounded delta of the full-frame reference.
func TestTemporalDriftBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("renders and detects 120 frames")
	}
	d := RunTemporalDrift(CIScale)
	if d.VIPFrames == 0 {
		t.Fatal("no VIP frames in the drift video")
	}
	if d.FullFrames == 0 || d.ROIFrames == 0 || d.EarlyExitFrames == 0 || d.BridgedFrames == 0 {
		t.Fatalf("drift pass did not exercise every rung: %+v", d)
	}
	budget := temporal.Config{}.WithDefaults()
	// Each gap burst is MaxBridged+1 frames: MaxBridged bridges plus one
	// dropped frame once the budget is spent.
	if d.MaxStaleFrames > budget.MaxBridged+2 {
		t.Fatalf("max staleness %d frames exceeds budget %d+2", d.MaxStaleFrames, budget.MaxBridged)
	}
	if d.BridgedFrames > 2*budget.MaxBridged {
		t.Fatalf("%d bridged frames across two bursts exceeds 2x budget %d",
			d.BridgedFrames, budget.MaxBridged)
	}
	if d.FullHitPct == 0 {
		t.Fatal("full-frame reference never hit the vest — fixture broken")
	}
	// The ladder gives up accuracy for goodput, but boundedly: the drift
	// study's claim is a budgeted trade, not a free lunch.
	if d.HitDeltaPct < -35 {
		t.Fatalf("ladder hit rate dropped %.1f%% vs full-frame — outside the budgeted envelope", d.HitDeltaPct)
	}
	if d.IoUDrift < -0.35 {
		t.Fatalf("ladder mean IoU drifted %.3f vs full-frame — outside the budgeted envelope", d.IoUDrift)
	}

	// The whole pass is deterministic.
	if d2 := RunTemporalDrift(CIScale); d2 != d {
		t.Fatalf("drift pass not deterministic:\n  %+v\n  %+v", d, d2)
	}
}
