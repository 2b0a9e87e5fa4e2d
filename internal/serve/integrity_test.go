package serve

import (
	"testing"

	"ocularone/internal/device"
)

// integrityRun executes one horizon-and-drain study with the given
// integrity config, optionally imposing SDC or a straggler episode for
// the whole horizon, and returns the server plus its checked result.
func integrityRun(t testing.TB, ic IntegrityConfig, sdcProb, straggle float64) (*Server, Result) {
	t.Helper()
	cfg := DefaultConfig(6000, 42)
	cfg.Traffic.RatePerSec = Capacity(cfg)
	cfg.Integrity = ic
	s := NewServer(cfg)
	if sdcProb > 0 {
		s.SetSDC(0, sdcProb)
	}
	if straggle > 0 {
		s.SetStraggle(0, straggle)
	}
	s.AdvanceTo(cfg.HorizonMS)
	if sdcProb > 0 {
		s.SetSDC(cfg.HorizonMS, 0)
	}
	if straggle > 0 {
		s.SetStraggle(cfg.HorizonMS, 0)
	}
	s.Drain()
	res := s.Result()
	if err := res.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	return s, res
}

// TestIntegrityZeroKnobParity pins the replay contract: an integrity
// config whose every knob is individually disabled — one attempt, no
// hedge though a hedge device is named — leaves the schedule and
// the fingerprint bit-identical to a server that never heard of the
// integrity layer.
func TestIntegrityZeroKnobParity(t *testing.T) {
	base, _ := integrityRun(t, IntegrityConfig{}, 0, 0)
	zero, _ := integrityRun(t, IntegrityConfig{
		Retry: RetryPolicy{MaxAttempts: 1, BackoffMS: 5},
		Hedge: HedgePolicy{Enabled: false, Device: device.OrinAGX},
	}, 0, 0)
	if base.Fingerprint() != zero.Fingerprint() {
		t.Fatalf("zero-knob integrity config diverged: %016x vs %016x",
			base.Fingerprint(), zero.Fingerprint())
	}
}

// TestSDCDetectionCoverage: under an active corruption process the
// modelled detectors catch injections at the configured coverage, and
// every injection lands in exactly one ledger.
func TestSDCDetectionCoverage(t *testing.T) {
	_, res := integrityRun(t, IntegrityConfig{
		Retry: RetryPolicy{MaxAttempts: 3, BackoffMS: 5},
	}, 0.2, 0)
	if res.SDCInjected < 100 {
		t.Fatalf("SDC process injected only %d corruptions; regime too weak to measure", res.SDCInjected)
	}
	if res.CorruptDetected == 0 {
		t.Fatal("no corruption was ever detected")
	}
	covered := float64(res.CorruptDetected) / float64(res.CorruptDetected+res.CorruptServed)
	if covered < 0.97 {
		t.Fatalf("detection coverage %.3f, want >= 0.97 (modelled 0.99)", covered)
	}
	if res.Retries == 0 {
		t.Fatal("detections never retried despite attempts and budget")
	}
	if res.CorruptServed > res.SDCInjected/10 {
		t.Fatalf("served %d of %d corruptions; detectors effectively off", res.CorruptServed, res.SDCInjected)
	}
}

// TestSDCRetryBudget: total retries stay within the budget,
// retryBudgetFrac of admitted requests.
func TestSDCRetryBudget(t *testing.T) {
	_, res := integrityRun(t, IntegrityConfig{
		Retry: RetryPolicy{MaxAttempts: 4, BackoffMS: 2},
	}, 0.3, 0)
	if res.Retries == 0 {
		t.Fatal("no retries under a heavy SDC regime")
	}
	if cap := int64(retryBudgetFrac*float64(res.Admitted)) + 1; res.Retries > cap {
		t.Fatalf("retries %d exceed budget %d (10%% of %d admitted)", res.Retries, cap, res.Admitted)
	}
	if res.RetriesGivenUp == 0 {
		t.Fatal("a 10% budget under 30% corruption never exhausted")
	}
}

// TestSDCWithoutRetryFlagsDrops: with no retry policy, every detected
// corruption is dropped flagged (completed, never SLO-met) rather than
// served — detection without recovery still protects integrity.
func TestSDCWithoutRetryFlagsDrops(t *testing.T) {
	_, res := integrityRun(t, IntegrityConfig{}, 0.2, 0)
	if res.CorruptDetected == 0 {
		t.Fatal("no detections under an active SDC process")
	}
	if res.Retries != 0 {
		t.Fatalf("retry policy disabled but %d retries ran", res.Retries)
	}
	if res.RetriesGivenUp != res.CorruptDetected {
		t.Fatalf("flagged drops %d != detections %d with retries off",
			res.RetriesGivenUp, res.CorruptDetected)
	}
}

// TestHedgingUnderStraggler: a straggling primary makes the admission
// predictor forecast misses; hedging converts those forecasts into
// duplicated work, wins races, and beats both the unhedged run's
// goodput and its shed count (doomed arrivals are hedged, not shed).
func TestHedgingUnderStraggler(t *testing.T) {
	hp := HedgePolicy{Enabled: true, Device: device.RTX4090, BudgetFrac: 0.3}
	_, hedged := integrityRun(t, IntegrityConfig{Hedge: hp}, 0, 2.0)
	_, plain := integrityRun(t, IntegrityConfig{}, 0, 2.0)
	if hedged.Hedges == 0 {
		t.Fatal("straggling primary never triggered a hedge")
	}
	if hedged.HedgeWins == 0 {
		t.Fatal("no hedge ever won the race against a 3x-slowed primary")
	}
	if hedged.HedgeWins > hedged.Hedges {
		t.Fatalf("hedge wins %d exceed hedges %d", hedged.HedgeWins, hedged.Hedges)
	}
	if hedged.SLOMet <= plain.SLOMet {
		t.Fatalf("hedged SLO-met %d not above unhedged %d under a straggler",
			hedged.SLOMet, plain.SLOMet)
	}
	if hedged.Shed >= plain.Shed {
		t.Fatalf("hedged shed %d not below unhedged %d: doomed arrivals should hedge instead",
			hedged.Shed, plain.Shed)
	}
}

// TestHedgeDetectedCorruptFallsBack: when the primary's result is
// detected corrupt and a hedge duplicate exists, the clean hedge result
// is served — no retry is spent. The hedge target is a slow edge
// device so hedges lose the race and are still queued at primary
// dispatch, which is exactly when the fallback matters.
func TestHedgeDetectedCorruptFallsBack(t *testing.T) {
	_, res := integrityRun(t, IntegrityConfig{
		Retry: RetryPolicy{MaxAttempts: 3, BackoffMS: 5},
		Hedge: HedgePolicy{Enabled: true, Device: device.OrinNano, BudgetFrac: 0.3},
	}, 0.2, 2.0)
	if res.Hedges == 0 || res.CorruptDetected == 0 {
		t.Fatalf("regime produced hedges=%d detections=%d; cannot exercise the fallback",
			res.Hedges, res.CorruptDetected)
	}
	if res.Retries+res.RetriesGivenUp >= res.CorruptDetected {
		t.Fatal("every detection consumed a retry or a give-up; hedge fallback never fired")
	}
}

// TestRetryLedgerVisibleToAdmission is the regression test for the
// pending-retry ledger: a detection burst during a device outage must
// be visible to shed-if-doomed the moment the retries are scheduled.
// The exact shed/retry counts of this fixed scenario are pinned — a
// predictor change that stops folding retryPendingMS into the queue
// estimate shifts them and fails here loudly.
func TestRetryLedgerVisibleToAdmission(t *testing.T) {
	runOnce := func() Result {
		cfg := DefaultConfig(6000, 42)
		cfg.Traffic.RatePerSec = Capacity(cfg)
		cfg.Integrity.Retry = RetryPolicy{MaxAttempts: 3, BackoffMS: 5}
		s := NewServer(cfg)
		s.SetSDC(0, 0.3)
		s.AdvanceTo(2000)
		s.FailDevice(2000, 2600) // outage: completions stop, backlog builds
		s.AdvanceTo(6000)
		s.SetSDC(6000, 0)
		s.Drain()
		res := s.Result()
		if err := res.CheckInvariants(); err != nil {
			t.Fatalf("invariants: %v", err)
		}
		return res
	}
	a, b := runOnce(), runOnce()
	if a.Shed != b.Shed || a.Retries != b.Retries {
		t.Fatalf("scenario not deterministic: shed %d/%d retries %d/%d", a.Shed, b.Shed, a.Retries, b.Retries)
	}
	if a.Retries == 0 {
		t.Fatal("scenario produced no retries; ledger never exercised")
	}
	if a.Shed == 0 {
		t.Fatal("scenario produced no sheds; admission pressure never exercised")
	}
	// Pinned at the commit introducing the ledger fold; regenerate only
	// with a deliberate, reviewed admission-predictor change.
	const wantShed, wantRetries = int64(4912), int64(127)
	if a.Shed != wantShed || a.Retries != wantRetries {
		t.Fatalf("pinned scenario drifted: shed %d want %d, retries %d want %d",
			a.Shed, wantShed, a.Retries, wantRetries)
	}
}

// TestIntegrityZeroAlloc: the steady-state event loop allocates nothing
// with retries, hedging, and an active SDC process all live — the
// integrity layer rides the pooled records and the event queue.
func TestIntegrityZeroAlloc(t *testing.T) {
	cfg := DefaultConfig(1e18, 42)
	cfg.Traffic.RatePerSec = 2 * Capacity(cfg)
	cfg.Integrity = IntegrityConfig{
		Retry: RetryPolicy{MaxAttempts: 3, BackoffMS: 5},
		Hedge: HedgePolicy{Enabled: true, Device: device.RTX4090},
	}
	s := NewServer(cfg)
	s.SetSDC(0, 0.05)
	s.SetStraggle(0, 0.5)
	s.AdvanceTo(5_000) // warm: pool at cap, buckets sized, scratch grown
	tMS := 5_000.0
	if allocs := testing.AllocsPerRun(200, func() {
		tMS += 1.0
		s.AdvanceTo(tMS)
	}); allocs != 0 {
		t.Fatalf("steady state allocated %.1f times/ms with the integrity layer live", allocs)
	}
}
