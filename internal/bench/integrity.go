package bench

import (
	"fmt"
	"io"

	"ocularone/internal/chaos"
	"ocularone/internal/device"
	"ocularone/internal/serve"
)

// Integrity policies of the study — also pinned by the chaos package's
// golden fingerprints, so the study and the determinism gate measure
// the same configurations.
func integrityRetry() serve.RetryPolicy {
	return serve.RetryPolicy{MaxAttempts: 3, BackoffMS: 5}
}
func integrityHedge() serve.HedgePolicy {
	return serve.HedgePolicy{Enabled: true, Device: device.RTX4090}
}

// IntegrityRegimes returns the ext-integrity sweep: each fault scenario
// paired with the request-integrity policy measured against it. The
// sweep walks the protection ladder — detection alone, detection with
// retries, hedging under stragglers, and the full layer under the
// combined regime — so the table reads as an ablation of the integrity
// machinery.
func IntegrityRegimes(seed uint64) []KneeRegime {
	return []KneeRegime{
		{Name: "baseline", Chaos: chaos.Baseline(seed)},
		// Detection is intrinsic to the compute tier (ABFT + guards run
		// regardless); recovery is the policy under test. The detect-only
		// row drops every detection flagged — integrity without goodput.
		{Name: "sdc-detect-only", Chaos: chaos.SDCRegime(seed)},
		{Name: "sdc-retry", Chaos: chaos.SDCRegime(seed),
			Integrity: serve.IntegrityConfig{Retry: integrityRetry()}},
		{Name: "straggle-hedge", Chaos: chaos.StragglerRegime(seed),
			Integrity: serve.IntegrityConfig{Hedge: integrityHedge()}},
		{Name: "integrity-full", Chaos: chaos.IntegrityRegime(seed),
			Integrity: serve.IntegrityConfig{Retry: integrityRetry(), Hedge: integrityHedge()}},
	}
}

// trueGoodput subtracts served-corrupt SLO hits from goodput —
// the number the integrity layer exists to defend.
func trueGoodput(r serve.Result) float64 {
	if r.SLOMet <= 0 {
		return r.GoodputPerSec
	}
	return r.GoodputPerSec * float64(r.SLOMet-r.CorruptSLOMet) / float64(r.SLOMet)
}

// DetectCoveragePct is the measured (not configured) share of injected
// corruptions the detectors caught.
func DetectCoveragePct(r serve.Result) float64 { return pct(r.CorruptDetected, r.SDCInjected) }

// WriteIntegrityCurve renders the integrity study.
func WriteIntegrityCurve(w io.Writer, pts []KneePoint) {
	divider(w, "Extension: end-to-end integrity at the capacity knee (SDC detection / retry / hedging)")
	fmt.Fprintf(w, "%-16s %11s %11s %9s %10s %6s %6s %7s %6s %6s %8s %6s %6s\n",
		"regime", "goodput/s", "true-gp/s", "p50", "p99", "shed%", "sdc",
		"detect", "served", "cover%", "retries", "hedge", "wins")
	for _, p := range pts {
		fmt.Fprintf(w, "%-16s %11.0f %11.0f %8.1fms %9.1fms %5.1f%% %6d %7d %6d %5.1f%% %8d %6d %6d\n",
			p.Name, p.GoodputPerSec, trueGoodput(p.Result), p.P50MS, p.P99MS,
			pct(p.Shed, p.Offered), p.SDCInjected, p.CorruptDetected, p.CorruptServed,
			DetectCoveragePct(p.Result), p.Retries, p.Hedges, p.HedgeWins)
	}
}
