package bench

import (
	"ocularone/internal/chaos"
	"ocularone/internal/scene"
	"ocularone/internal/serve"
)

// KneeRegime is one row of a capacity-knee study (ext-chaos,
// ext-integrity, ext-temporal): a fault process and the serving layers
// raised against it. The zero regime is plain serving.
type KneeRegime struct {
	Name string
	// Chaos is the fault-injection configuration; a disabled one (the
	// baselines) attaches no fault process at all.
	Chaos chaos.Config
	// Adapt and Temporal switch the precision controller and the
	// degradation ladder on; Integrity is the retry / hedge policy.
	Adapt, Temporal bool
	Integrity       serve.IntegrityConfig
	// Condition is the scene condition ext-chaos degrades the detection
	// corpus with while this regime's faults strike.
	Condition scene.Condition
}

// KneePoint is one regime's finished run.
type KneePoint struct {
	KneeRegime
	serve.Outcome
}

// RunKnee runs every regime at offered load rho = 1.0 — the capacity
// knee, where managed recovery is visible in goodput rather than masked
// by slack, and retry / hedge overhead must be paid out of real
// headroom. A regime with nothing enabled (each study's baseline row)
// must reproduce the plain ext-serve rho=1.0 fingerprint bit for bit —
// the cross-PR determinism gate that proves idle layer plumbing inert.
func RunKnee(regimes []KneeRegime, seed uint64, horizonMS float64) []KneePoint {
	pts := make([]KneePoint, 0, len(regimes))
	for _, reg := range regimes {
		cfg := serve.DefaultConfig(horizonMS, seed)
		cfg.Traffic.RatePerSec = serve.Capacity(cfg)
		if reg.Chaos.Enabled() {
			cfg.Disrupt = chaos.New(reg.Chaos)
		}
		cfg.Adapt.Enabled = reg.Adapt
		cfg.Temporal.Enabled = reg.Temporal
		cfg.Integrity = reg.Integrity
		pts = append(pts, KneePoint{KneeRegime: reg, Outcome: serve.NewServer(cfg).Finish()})
	}
	return pts
}
