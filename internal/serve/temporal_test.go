package serve

import (
	"testing"

	"ocularone/internal/temporal"
)

// scriptedOutage is a deterministic Disruption failing the device over
// fixed windows — the minimal fault source serve-side temporal tests
// need without importing internal/chaos (which imports serve).
type scriptedOutage struct {
	windows [][2]float64 // [failAt, restoreAt] pairs, ascending
	i       int
	down    bool
}

func (d *scriptedOutage) Reset() (float64, bool) {
	d.i, d.down = 0, false
	if len(d.windows) == 0 {
		return 0, false
	}
	return d.windows[0][0], true
}

func (d *scriptedOutage) Apply(s *Server, tMS float64) (float64, bool) {
	w := d.windows[d.i]
	if !d.down {
		s.FailDevice(tMS, w[1])
		d.down = true
		return w[1], true
	}
	s.RecoverDevice(tMS)
	d.down = false
	d.i++
	if d.i >= len(d.windows) {
		return 0, false
	}
	return d.windows[d.i][0], true
}

// overloadConfig offers rho x capacity for horizonMS.
func overloadConfig(horizonMS float64, seed uint64, rho float64) Config {
	cfg := DefaultConfig(horizonMS, seed)
	cfg.Traffic.RatePerSec = rho * Capacity(cfg)
	return cfg
}

// TestTemporalZeroKnobReplay: a Temporal layer set with Enabled=false
// must replay the plain serving fingerprint bit for bit. Enabled is the
// layer's only field, so that layer is the zero value and both runs use
// the same config: the check is now trivially true, and inertness is
// pinned by the golden fingerprints instead.
func TestTemporalZeroKnobReplay(t *testing.T) {
	base := overloadConfig(4_000, 7, 1.2)
	sPlain := NewServer(base)
	sPlain.AdvanceTo(base.HorizonMS)
	sPlain.Drain()

	knobbed := base
	knobbed.Temporal = temporal.Layer{Enabled: false} // the ladder's only knob
	sKnob := NewServer(knobbed)
	sKnob.AdvanceTo(knobbed.HorizonMS)
	sKnob.Drain()

	if sPlain.Fingerprint() != sKnob.Fingerprint() {
		t.Fatalf("disabled temporal config drifted the fingerprint: %016x vs %016x",
			sPlain.Fingerprint(), sKnob.Fingerprint())
	}
}

// TestTemporalBridgingUnderOverload: at 2x offered load the ladder
// converts a measurable share of would-be sheds into bridged responses,
// improves goodput over the shed-only run, and keeps every conservation
// invariant.
func TestTemporalBridgingUnderOverload(t *testing.T) {
	shedOnly := Run(overloadConfig(6_000, 42, 2.0))
	if err := shedOnly.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	cfg := overloadConfig(6_000, 42, 2.0)
	cfg.Temporal.Enabled = true
	ladder := Run(cfg)
	if err := ladder.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if ladder.BridgedReqs == 0 {
		t.Fatal("no bridged responses at 2x overload")
	}
	if ladder.ROIReqs+ladder.EarlyExitReqs == 0 {
		t.Fatal("no reduced-rung completions at 2x overload")
	}
	if ladder.GoodputPerSec <= shedOnly.GoodputPerSec {
		t.Fatalf("ladder goodput %.1f/s did not beat shed-only %.1f/s",
			ladder.GoodputPerSec, shedOnly.GoodputPerSec)
	}
	if ladder.ShedRate >= shedOnly.ShedRate {
		t.Fatalf("ladder shed rate %.3f did not drop below shed-only %.3f",
			ladder.ShedRate, shedOnly.ShedRate)
	}
	if ladder.StaleMaxMS <= 0 || ladder.StaleP50MS <= 0 {
		t.Fatalf("bridged responses recorded no staleness: p50=%v max=%v",
			ladder.StaleP50MS, ladder.StaleMaxMS)
	}
}

// TestTemporalStalenessBudget: under sustained 2x overload the
// staleness budget bites — a tenant's track stops bridging after
// temporal.MaxBridged answers in a row, so some would-be sheds still
// shed and bridges stay within MaxBridged per real completion — and the
// forced-refresh clock fires.
func TestTemporalStalenessBudget(t *testing.T) {
	cfg := overloadConfig(6_000, 42, 2.0)
	cfg.Temporal.Enabled = true
	res := Run(cfg)
	if res.BridgedReqs == 0 {
		t.Fatal("no bridged responses at 2x overload")
	}
	// Without chaos every shed under the ladder is a refused bridge.
	if res.Shed == 0 {
		t.Fatalf("bridged %d and shed nothing — budget has no bite", res.BridgedReqs)
	}
	if real := res.Completed - res.BridgedReqs; res.BridgedReqs > real*temporal.MaxBridged {
		t.Fatalf("%d bridges exceed %d real completions x budget %d",
			res.BridgedReqs, real, temporal.MaxBridged)
	}
	if res.ForcedRefreshes == 0 {
		t.Fatal("staleness clock never forced a refresh under 2x overload")
	}
}

// TestTemporalOutageBridging: during a device outage the ladder bridges
// doomed arrivals that the shed-only configuration drops, and recovers
// more goodput over the same fault schedule.
func TestTemporalOutageBridging(t *testing.T) {
	windows := [][2]float64{{1_000, 1_400}, {3_000, 3_400}, {5_000, 5_400}}
	run := func(enable bool) Result {
		cfg := overloadConfig(7_000, 42, 1.0)
		cfg.Disrupt = &scriptedOutage{windows: windows}
		cfg.Adapt.Enabled = true
		cfg.Temporal.Enabled = enable
		return Run(cfg)
	}
	shedOnly, ladder := run(false), run(true)
	if err := ladder.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if ladder.BridgedReqs == 0 {
		t.Fatal("no bridging across three 400ms outages")
	}
	if ladder.GoodputPerSec <= shedOnly.GoodputPerSec {
		t.Fatalf("ladder goodput %.1f/s did not beat shed-only %.1f/s under outages",
			ladder.GoodputPerSec, shedOnly.GoodputPerSec)
	}
}

// TestTemporalDeterminism: the ladder run is a pure function of the
// seed — bit-for-bit reproducible, and seed-sensitive.
func TestTemporalDeterminism(t *testing.T) {
	run := func(seed uint64) uint64 {
		cfg := overloadConfig(4_000, seed, 2.0)
		cfg.Temporal.Enabled = true
		s := NewServer(cfg)
		s.AdvanceTo(cfg.HorizonMS)
		s.Drain()
		return s.Fingerprint()
	}
	if a, b := run(42), run(42); a != b {
		t.Fatalf("same seed diverged: %016x vs %016x", a, b)
	}
	if a, b := run(42), run(43); a == b {
		t.Fatalf("different seeds collided: %016x", a)
	}
}

// TestTemporalBridgeAnchoring: a tenant can only bridge after a real
// completion anchors its track, and consecutive bridges are capped by
// the budget between anchors — checked via the Result invariant that
// bridges never exist without real completions.
func TestTemporalBridgeAnchoring(t *testing.T) {
	cfg := overloadConfig(5_000, 11, 3.0) // heavy overload: bridging maximal
	cfg.Temporal.Enabled = true
	res := Run(cfg)
	if err := res.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if res.BridgedReqs == 0 {
		t.Fatal("no bridging at 3x overload")
	}
	real := res.Completed - res.BridgedReqs
	if real <= 0 {
		t.Fatalf("bridges (%d) without real completions (%d)", res.BridgedReqs, res.Completed)
	}
	// Per anchor, at most MaxBridged bridges; tenants' first bridges need
	// one anchor each, so the global ratio is bounded by the budget.
	if res.BridgedReqs > real*temporal.MaxBridged {
		t.Fatalf("%d bridges exceed %d real completions x budget %d",
			res.BridgedReqs, real, temporal.MaxBridged)
	}
}
