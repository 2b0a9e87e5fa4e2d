package bench

import (
	"testing"

	"ocularone/internal/temporal"
)

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
	// Each gap burst is MaxBridged+1 frames: MaxBridged bridges plus one
	// dropped frame once the budget is spent.
	if d.MaxStaleFrames > temporal.MaxBridged+2 {
		t.Fatalf("max staleness %d frames exceeds budget %d+2", d.MaxStaleFrames, temporal.MaxBridged)
	}
	if d.BridgedFrames > 2*temporal.MaxBridged {
		t.Fatalf("%d bridged frames across two bursts exceeds 2x budget %d",
			d.BridgedFrames, temporal.MaxBridged)
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
