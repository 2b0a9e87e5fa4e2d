package chaos_test

import (
	"fmt"
	"testing"

	"ocularone/internal/chaos"
	"ocularone/internal/device"
	"ocularone/internal/serve"
	"ocularone/internal/temporal"
)

// Golden fingerprints of the reference serving study (rho = 1.0,
// horizon 10 s) for three seeds, fault-free and under the combined
// chaos regime with precision adaptation. Any drift in the scheduler,
// the executor's draw sequence, or the fault processes changes a
// fingerprint and fails here loudly — regenerate the table only for a
// deliberate, reviewed behaviour change.
//
// The seed-42 baseline is additionally pinned to the committed PR-6
// value (the serve curve's rho=1.0 row, frozen in BENCHMARKS.md
// §Frozen: the pre-benchmark/ harness): the chaos layer's
// zero-fault path must replay the pre-chaos serving study bit for bit.
const pr6BaselineSeed42 = "46ef51717a1bd684"

var goldenFingerprints = []struct {
	seed uint64
	mode string
	want string
}{
	{42, "baseline", "46ef51717a1bd684"},
	{42, "chaos", "96ae4965a36c988d"},
	{43, "baseline", "afdd38be2751aa40"},
	{43, "chaos", "00b9871c9eaa2156"},
	{44, "baseline", "2fe7c921744e7674"},
	{44, "chaos", "2e5c752f9740d458"},
	// PR-8 integrity regimes: retries under silent corruption, hedging
	// under stragglers, and the full integrity scenario with both.
	{42, "retry-sdc", "26da93de82cbe515"},
	{42, "hedge-straggle", "fa01cf2124a61679"},
	{42, "integrity", "61916725c57cdc7a"},
	{43, "retry-sdc", "f15f5463f4a22677"},
	{43, "hedge-straggle", "8bc04a85307e01e3"},
	{43, "integrity", "37072fbd69a87c22"},
	{44, "retry-sdc", "726f00aa1c2026b1"},
	{44, "hedge-straggle", "95941eb44cb69145"},
	{44, "integrity", "8db09e3f0b7fa142"},
	// PR-10 temporal regime: the Markov dropout process with precision
	// adaptation and the graceful-degradation ladder live — tracker
	// bridging, ROI/early-exit rungs, staleness histogram all mixed
	// into the fingerprint.
	{42, "temporal", "a760ee67089c5360"},
	{43, "temporal", "2570cbda22583860"},
	{44, "temporal", "fc82a4e79d8c06c6"},
}

// goldenRetry and goldenHedge are the pinned integrity policies of the
// PR-8 golden modes (also the ext-integrity study's policies).
var (
	goldenRetry = serve.RetryPolicy{MaxAttempts: 3, BackoffMS: 5}
	goldenHedge = serve.HedgePolicy{Enabled: true, Device: device.RTX4090}
)

// goldenRun executes one pinned configuration and returns its
// fingerprint as hex.
func goldenRun(seed uint64, mode string) string {
	cfg := serve.DefaultConfig(10000, seed)
	cfg.Traffic.RatePerSec = serve.Capacity(cfg)
	switch mode {
	case "chaos":
		cfg.Disrupt = chaos.New(chaos.Combined(seed))
		cfg.Adapt.Enabled = true
	case "retry-sdc":
		cfg.Disrupt = chaos.New(chaos.SDCRegime(seed))
		cfg.Integrity.Retry = goldenRetry
	case "hedge-straggle":
		cfg.Disrupt = chaos.New(chaos.StragglerRegime(seed))
		cfg.Integrity.Hedge = goldenHedge
	case "integrity":
		cfg.Disrupt = chaos.New(chaos.IntegrityRegime(seed))
		cfg.Integrity.Retry = goldenRetry
		cfg.Integrity.Hedge = goldenHedge
	case "temporal":
		cfg.Disrupt = chaos.New(chaos.DropoutRegime(seed))
		cfg.Adapt.Enabled = true
		cfg.Temporal.Enabled = true
	case "layered", "link":
		// The serve_layered benchmark workload's layers: every fault
		// process, precision adaptation, the ladder, retries and hedging.
		cc := chaos.Combined(seed)
		cc.SDC = chaos.SDCRegime(seed).SDC
		cc.Straggler = chaos.StragglerRegime(seed).Straggler
		cfg.Disrupt = chaos.New(cc)
		cfg.Adapt.Enabled = true
		cfg.Temporal.Enabled = true
		cfg.Integrity.Retry = goldenRetry
		cfg.Integrity.Hedge = goldenHedge
		if mode == "link" {
			cfg.LinkRTTms = 3
			cfg.Batch.MaxBatch = 1
		}
	}
	s := serve.NewServer(cfg)
	s.AdvanceTo(cfg.HorizonMS)
	s.Drain()
	return fmt.Sprintf("%016x", s.Fingerprint())
}

// TestGoldenFingerprints replays every pinned configuration and
// compares bit for bit.
func TestGoldenFingerprints(t *testing.T) {
	for _, g := range goldenFingerprints {
		g := g
		t.Run(fmt.Sprintf("%s-seed%d", g.mode, g.seed), func(t *testing.T) {
			if got := goldenRun(g.seed, g.mode); got != g.want {
				t.Fatalf("seed %d %s fingerprint %s, want %s", g.seed, g.mode, got, g.want)
			}
		})
	}
}

// goldenLayered pins what no table above reaches: every layer live at
// once (temporal x hedge x adapt x retry under all five fault
// processes), and the same with a non-zero link round trip and
// unbatched dispatch.
var goldenLayered = []struct {
	seed uint64
	mode string
	want string
}{
	{42, "layered", "83324c06175a0689"},
	{43, "layered", "522ca5d3732dbf0d"},
	{44, "layered", "f97925394d04bd2c"},
	{42, "link", "4bac975f53b16768"},
	{43, "link", "9340820028efccba"},
	{44, "link", "780dfa7b5c12d08d"},
}

// TestGoldenFingerprintsLayered replays the every-layer configurations
// and compares bit for bit.
func TestGoldenFingerprintsLayered(t *testing.T) {
	for _, g := range goldenLayered {
		g := g
		t.Run(fmt.Sprintf("%s-seed%d", g.mode, g.seed), func(t *testing.T) {
			if got := goldenRun(g.seed, g.mode); got != g.want {
				t.Fatalf("seed %d %s fingerprint %s, want %s", g.seed, g.mode, got, g.want)
			}
		})
	}
}

// TestPR6Parity pins the cross-PR contract separately so a regenerated
// golden table cannot silently absorb a break of it: the zero-fault
// config must reproduce the PR-6 fingerprint frozen in BENCHMARKS.md.
func TestPR6Parity(t *testing.T) {
	if got := goldenRun(42, "baseline"); got != pr6BaselineSeed42 {
		t.Fatalf("zero-fault run fingerprint %s, want PR-6 pinned %s", got, pr6BaselineSeed42)
	}
}

// TestPR7ZeroKnobParity pins the PR-8 replay contract the same way:
// with every integrity knob individually disabled — one attempt, hedge
// off with a device named — both the PR-7 chaos fingerprints and
// the PR-6 baseline must reproduce bit for bit. The integrity layer is
// proven inert when idle, not merely configured away.
func TestPR7ZeroKnobParity(t *testing.T) {
	zeroKnob := func(seed uint64, mode string) string {
		cfg := serve.DefaultConfig(10000, seed)
		cfg.Traffic.RatePerSec = serve.Capacity(cfg)
		if mode == "chaos" {
			cfg.Disrupt = chaos.New(chaos.Combined(seed))
			cfg.Adapt.Enabled = true
		}
		cfg.Integrity = serve.IntegrityConfig{
			Retry: serve.RetryPolicy{MaxAttempts: 1, BackoffMS: 5},
			Hedge: serve.HedgePolicy{Enabled: false, Device: device.OrinAGX},
		}
		s := serve.NewServer(cfg)
		s.AdvanceTo(cfg.HorizonMS)
		s.Drain()
		return fmt.Sprintf("%016x", s.Fingerprint())
	}
	for _, g := range goldenFingerprints {
		if g.mode != "baseline" && g.mode != "chaos" {
			continue
		}
		if got := zeroKnob(g.seed, g.mode); got != g.want {
			t.Fatalf("seed %d %s with zero-knob integrity config: %s, want pinned %s",
				g.seed, g.mode, got, g.want)
		}
	}
}

// TestPR9ZeroKnobParity pins the PR-10 replay contract: with the
// temporal ladder's layer set but not enabled, every pre-temporal
// pinned fingerprint (baseline, chaos, and the three integrity modes)
// must reproduce bit for bit. The ladder's budget and costs are
// constants, so Enabled is its only field and the disabled layer is the
// zero value: this now repeats TestGoldenFingerprintsLayered's runs
// rather than proving anything further.
func TestPR9ZeroKnobParity(t *testing.T) {
	inert := temporal.Layer{Enabled: false}
	zeroKnob := func(seed uint64, mode string) string {
		cfg := serve.DefaultConfig(10000, seed)
		cfg.Traffic.RatePerSec = serve.Capacity(cfg)
		switch mode {
		case "chaos":
			cfg.Disrupt = chaos.New(chaos.Combined(seed))
			cfg.Adapt.Enabled = true
		case "retry-sdc":
			cfg.Disrupt = chaos.New(chaos.SDCRegime(seed))
			cfg.Integrity.Retry = goldenRetry
		case "hedge-straggle":
			cfg.Disrupt = chaos.New(chaos.StragglerRegime(seed))
			cfg.Integrity.Hedge = goldenHedge
		case "integrity":
			cfg.Disrupt = chaos.New(chaos.IntegrityRegime(seed))
			cfg.Integrity.Retry = goldenRetry
			cfg.Integrity.Hedge = goldenHedge
		}
		cfg.Temporal = inert
		s := serve.NewServer(cfg)
		s.AdvanceTo(cfg.HorizonMS)
		s.Drain()
		return fmt.Sprintf("%016x", s.Fingerprint())
	}
	for _, g := range goldenFingerprints {
		if g.mode == "temporal" {
			continue // the one mode where the ladder is live
		}
		if got := zeroKnob(g.seed, g.mode); got != g.want {
			t.Fatalf("seed %d %s with zero-knob temporal config: %s, want pinned %s",
				g.seed, g.mode, got, g.want)
		}
	}
}
