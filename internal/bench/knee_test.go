package bench

import (
	"testing"

	"ocularone/internal/serve"
)

// TestKneeCrossStudyGates pins the identities that tie the three knee
// studies to each other and to the plain serving sweep (the ones
// servebench -check enforces per run), plus each study's headline:
//
//   - every study's baseline row reproduces serve.RunCurve's rho=1.0
//     point — idle fault, integrity and ladder plumbing is inert;
//   - ext-temporal's dropout-shed-only reproduces ext-chaos's dropout
//     row (PR 7's, frozen in BENCHMARKS.md §Frozen: the pre-benchmark/
//     harness) — fingerprint and goodput — bit for bit;
//   - every integrity regime that injects corruption detects >= 97 % of
//     it, and dropout-ladder, differing from shed-only in exactly one
//     knob, beats its goodput.
func TestKneeCrossStudyGates(t *testing.T) {
	const seed, horizonMS = 42, 10_000
	plain := serve.RunCurve(serve.DefaultConfig(horizonMS, seed), []float64{1.0})[0]
	if plain.Fingerprint != "46ef51717a1bd684" {
		t.Errorf("plain rho=1.0 fingerprint %s, want 46ef51717a1bd684", plain.Fingerprint)
	}

	row := map[string]KneePoint{} // "study/regime"
	for _, st := range []struct {
		name    string
		regimes []KneeRegime
	}{
		{"chaos", ChaosRegimes(seed)},
		{"integrity", IntegrityRegimes(seed)},
		{"temporal", TemporalRegimes(seed)},
	} {
		pts := RunKnee(st.regimes, seed, horizonMS)
		if pts[0].Name != "baseline" || pts[0].Fingerprint != plain.Fingerprint {
			t.Errorf("%s: first row %s fingerprint %s, want baseline == plain rho=1.0 %s",
				st.name, pts[0].Name, pts[0].Fingerprint, plain.Fingerprint)
		}
		if b := pts[0]; b.FaultEpisodes+b.SDCInjected+b.Retries+b.Hedges+b.BridgedReqs+b.ROIReqs+b.EarlyExitReqs != 0 {
			t.Errorf("%s baseline shows layer activity: %+v", st.name, b.Result)
		}
		for _, p := range pts {
			row[st.name+"/"+p.Name] = p
		}
	}

	shed, dropout := row["temporal/dropout-shed-only"], row["chaos/dropout"]
	if shed.Fingerprint != "6cf6ae4bd79cd5ef" || shed.Fingerprint != dropout.Fingerprint {
		t.Errorf("shed-only fingerprint %s, chaos dropout %s, want both PR-7's 6cf6ae4bd79cd5ef",
			shed.Fingerprint, dropout.Fingerprint)
	}
	if shed.GoodputPerSec != 397.46630253531373 {
		t.Errorf("shed-only goodput %v, want PR-7's 397.46630253531373", shed.GoodputPerSec)
	}

	ladder := row["temporal/dropout-ladder"]
	if ladder.GoodputPerSec <= shed.GoodputPerSec {
		t.Errorf("ladder goodput %.2f does not beat shed-only %.2f", ladder.GoodputPerSec, shed.GoodputPerSec)
	}
	if ladder.BridgedReqs == 0 || ladder.ROIReqs == 0 || ladder.EarlyExitReqs == 0 {
		t.Errorf("ladder row missing degraded-tier activity: %+v", ladder.Result)
	}
	if ladder.StaleMaxMS <= 0 {
		t.Errorf("ladder row recorded no bridged staleness: %+v", ladder.Result)
	}
	if comb := row["temporal/combined-ladder"]; comb.BridgedReqs == 0 {
		t.Errorf("combined-ladder never bridged: %+v", comb.Result)
	}

	injected := false
	for _, name := range []string{"sdc-detect-only", "sdc-retry", "integrity-full"} {
		p := row["integrity/"+name]
		injected = injected || p.SDCInjected > 0
		if cover := DetectCoveragePct(p.Result); p.SDCInjected > 0 && cover < 97 {
			t.Errorf("integrity %s detection coverage %.1f%% below 97%%", name, cover)
		}
	}
	if !injected {
		t.Error("no integrity regime injected corruption: the coverage gate is vacuous")
	}
}
