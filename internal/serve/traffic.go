package serve

import (
	"fmt"
	"math"

	"ocularone/internal/models"
	"ocularone/internal/rng"
)

// Class is a request priority class with an associated SLO. Lower
// values are more urgent; the dispatcher serves classes in strict
// priority order and admission sheds the tight-deadline classes first
// (a doomed interactive request is worthless, a late batch request is
// not).
type Class uint8

// Priority classes of the serving front end.
const (
	// Interactive requests power live UI (the VIP-assistance alert
	// path): tight deadline, shed when doomed.
	Interactive Class = iota
	// Standard requests are ordinary streaming analytics: loose
	// deadline, shed when doomed.
	Standard
	// Background requests are offline re-analysis: no deadline, never
	// expired, shed only by queue caps.
	Background
	// NumClasses sizes per-class state arrays.
	NumClasses
)

// String returns the short class name used in reports.
func (c Class) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case Standard:
		return "standard"
	case Background:
		return "background"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Traffic parameterises the open-loop arrival process: an aggregate
// Poisson rate shared by Tenants independent sources, modulated by a
// diurnal sinusoid and a two-state burst process (a Markov-modulated
// Poisson process), with every request drawing a model and a priority
// class from fixed weights (modelWeights, classWeights). All draws come
// from rng streams split off Seed, so a Traffic value is a pure
// function of its fields: same seed, same trace, bit for bit.
type Traffic struct {
	// RatePerSec is the mean aggregate offered rate in requests per
	// second across all tenants (before diurnal/burst modulation, whose
	// long-run means are normalised out).
	RatePerSec float64
	// Tenants is the number of independent request sources (drone
	// sessions). Tenant i's share of the rate follows a 1/(i+1) Zipf
	// profile so fairness is tested against a skewed offered load. A
	// server admits at most 512 / Tenants (at least 1) queued requests
	// per tenant.
	Tenants int
	// DiurnalAmp in [0,1) modulates the rate sinusoidally:
	// rate × (1 + amp·sin(2πt/period + phase)). 0 disables.
	DiurnalAmp float64
	// DiurnalPeriodMS is the sinusoid period (default 60 s of simulated
	// time — a compressed day).
	DiurnalPeriodMS float64
	// BurstMult >= 1 multiplies the rate while a tenant's burst state is
	// on (1 disables bursts).
	BurstMult float64
	// BurstOnMS / BurstOffMS are the mean burst / gap durations.
	BurstOnMS, BurstOffMS float64
	// Seed drives every arrival, mix, and burst draw.
	Seed uint64
}

// modelWeights weights the eight Table-2 models the way a deployed
// fleet queries them: nano detectors dominate, mid-size models are
// common, x-large sweeps and the auxiliary pose/depth models trail.
var modelWeights = [models.NumModels]float64{
	models.V8Nano:     30,
	models.V11Nano:    25,
	models.V8Medium:   12,
	models.V11Medium:  10,
	models.Bodypose:   10,
	models.Monodepth2: 8,
	models.V8XLarge:   3,
	models.V11XLarge:  2,
}

// classWeights sends most traffic through the standard class with an
// interactive head and a background tail.
var classWeights = [NumClasses]float64{25, 60, 15}

// modelCum and classCum are the weights' cumulative shares, normalised
// to 1: a draw u in [0, 1) picks the first entry above it.
var (
	modelCum = cumulative(modelWeights[:])
	classCum = cumulative(classWeights[:])
)

// cumulative returns the running sums of ws / sum(ws).
func cumulative(ws []float64) []float64 {
	var tot float64
	for _, w := range ws {
		tot += w
	}
	cum, out := 0.0, make([]float64, len(ws))
	for i, w := range ws {
		cum += w / tot
		out[i] = cum
	}
	return out
}

// tenantGen is one tenant's lazy arrival-process state.
type tenantGen struct {
	r *rng.RNG
	// ratePerMS is the tenant's unmodulated mean rate.
	ratePerMS float64
	// maxRatePerMS bounds the modulated rate — the thinning envelope.
	maxRatePerMS float64
	// lo[on] <= the modulated rate <= hi[on] for every candidate before
	// boundEndMS, burst state on (1) or off (0): the thinning test's
	// sine-free verdicts (see bound).
	lo, hi     [2]float64
	boundEndMS float64
	phase      float64 // diurnal phase offset
	burstOn    bool
	burstEndMS float64 // next burst-state toggle
	nextMS     float64 // candidate arrival cursor
}

// gen holds the materialised generator state for one Traffic value.
type gen struct {
	cfg     Traffic
	tenants []tenantGen
}

func newGen(cfg Traffic) *gen {
	if r := cfg.RatePerSec; !(r > 0) || math.IsInf(r, 1) {
		panic(fmt.Sprintf("serve: Traffic.RatePerSec must be finite and positive, got %v", r))
	}
	if cfg.Tenants <= 0 {
		cfg.Tenants = 1
	}
	// NaN passes the <= 0 clamps below, and a NaN thinning envelope
	// never accepts a candidate: refuse every non-finite shape knob.
	for _, k := range []struct {
		name string
		v    float64
	}{
		{"DiurnalAmp", cfg.DiurnalAmp}, {"DiurnalPeriodMS", cfg.DiurnalPeriodMS},
		{"BurstMult", cfg.BurstMult}, {"BurstOnMS", cfg.BurstOnMS}, {"BurstOffMS", cfg.BurstOffMS},
	} {
		if math.IsNaN(k.v) || math.IsInf(k.v, 0) {
			panic(fmt.Sprintf("serve: Traffic.%s must be finite, got %v", k.name, k.v))
		}
	}
	if a := cfg.DiurnalAmp; a < 0 || a >= 1 {
		panic(fmt.Sprintf("serve: Traffic.DiurnalAmp must be in [0, 1), got %v", a))
	}
	if cfg.DiurnalPeriodMS <= 0 {
		cfg.DiurnalPeriodMS = 60_000
	}
	if cfg.BurstMult < 1 {
		cfg.BurstMult = 1
	}
	if cfg.BurstOnMS <= 0 {
		cfg.BurstOnMS = 500
	}
	if cfg.BurstOffMS <= 0 {
		cfg.BurstOffMS = 4500
	}

	g := &gen{cfg: cfg}

	// Zipf tenant shares: tenant i carries weight 1/(i+1). The burst
	// process raises a tenant's long-run mean rate by the expected
	// burst occupancy; normalise it out so RatePerSec stays the true
	// aggregate mean whatever the burst knobs.
	burstOcc := cfg.BurstOnMS / (cfg.BurstOnMS + cfg.BurstOffMS)
	burstNorm := 1 + (cfg.BurstMult-1)*burstOcc
	var zipfTot float64
	for i := 0; i < cfg.Tenants; i++ {
		zipfTot += 1 / float64(i+1)
	}
	root := rng.New(cfg.Seed)
	g.tenants = make([]tenantGen, cfg.Tenants)
	for i := range g.tenants {
		share := (1 / float64(i+1)) / zipfTot
		base := cfg.RatePerSec / 1e3 * share / burstNorm
		t := &g.tenants[i]
		t.r = root.SplitN("tenant", i)
		t.ratePerMS = base
		t.maxRatePerMS = base * (1 + cfg.DiurnalAmp) * cfg.BurstMult
		t.phase = 2 * math.Pi * float64(i) / float64(cfg.Tenants)
		t.burstEndMS = t.r.Exp(cfg.BurstOffMS)
	}
	return g
}

// boundWindows is how many windows one diurnal period is cut into for
// the thinning bounds: over a window the phase advances 2π/64, so the
// sine moves by at most about 0.1.
const boundWindows = 64

// sinSlack absorbs math.Sin's error (a few ulps of 1) and the rounding
// of a window's phase advance, many times over.
const sinSlack = 1e-9

// bound re-derives tenant t's rate bounds for the candidates of the
// window that opens at fromMS. The phase is non-decreasing in time and
// the sine is 1-Lipschitz, so over the window the sine stays within
// the window's phase advance of its value at the opening. The bounds
// are widened four ulps so they hold even if math.Sin strays past
// [-1, 1] by rounding. Without a diurnal term the rate is constant and
// its bounds hold for good.
func (g *gen) bound(t *tenantGen, fromMS float64) {
	sLo, sHi := 0.0, 0.0
	t.boundEndMS = math.Inf(1)
	if g.cfg.DiurnalAmp > 0 {
		t.boundEndMS = fromMS + g.cfg.DiurnalPeriodMS/boundWindows
		a := g.phaseAt(t, fromMS)
		d := g.phaseAt(t, t.boundEndMS) - a + sinSlack
		sin := math.Sin(a)
		sLo, sHi = max(sin-d, -1), min(sin+d, 1)
	}
	for on := range t.lo {
		t.lo[on], t.hi[on] = g.modulate(t.ratePerMS, sLo, on == 1), g.modulate(t.ratePerMS, sHi, on == 1)
		for i := 0; i < 4; i++ {
			t.lo[on] = math.Nextafter(t.lo[on], math.Inf(-1))
			t.hi[on] = math.Nextafter(t.hi[on], math.Inf(1))
		}
	}
}

// modulate is the modulated rate of a tenant whose unmodulated rate is
// base, at diurnal sine value sin, burst state on. It is monotone in
// sin, so rates taken at bounds on the sine bound the rate.
func (g *gen) modulate(base, sin float64, on bool) float64 {
	rate := base
	if g.cfg.DiurnalAmp > 0 {
		rate *= 1 + g.cfg.DiurnalAmp*sin
	}
	if on {
		rate *= g.cfg.BurstMult
	}
	return rate
}

// phaseAt is tenant t's diurnal phase at time tMS.
func (g *gen) phaseAt(t *tenantGen, tMS float64) float64 {
	return 2*math.Pi*tMS/g.cfg.DiurnalPeriodMS + t.phase
}

// nextArrival draws tenant ti's next arrival time after its cursor via
// thinning: candidate points at the envelope rate, accepted with
// probability rate(t)/envelope — the standard exact sampler for a
// nonhomogeneous Poisson process. The burst state machine advances
// lazily to each candidate (candidates are non-decreasing per tenant).
// The sine is evaluated only when the draw falls between the rate
// bounds of the burst state and diurnal window; outside them the
// verdict is already known, and the draws and their order are those of
// evaluating it every time.
func (g *gen) nextArrival(ti int) float64 {
	t := &g.tenants[ti]
	for {
		t.nextMS += t.r.Exp(1 / t.maxRatePerMS)
		x := t.r.Float64() * t.maxRatePerMS
		for t.nextMS >= t.burstEndMS {
			t.burstOn = !t.burstOn
			if t.burstOn {
				t.burstEndMS += t.r.Exp(g.cfg.BurstOnMS)
			} else {
				t.burstEndMS += t.r.Exp(g.cfg.BurstOffMS)
			}
		}
		if t.nextMS >= t.boundEndMS {
			g.bound(t, t.nextMS)
		}
		on := 0
		if t.burstOn {
			on = 1
		}
		if x < t.lo[on] || (x < t.hi[on] && x < g.modulate(t.ratePerMS, math.Sin(g.phaseAt(t, t.nextMS)), t.burstOn)) {
			return t.nextMS
		}
	}
}

// drawModel samples a model ID for tenant ti.
func (g *gen) drawModel(ti int) models.ID {
	u := g.tenants[ti].r.Float64()
	for i, c := range modelCum {
		if u < c {
			return models.ID(i)
		}
	}
	return models.NumModels - 1
}

// drawClass samples a priority class for tenant ti.
func (g *gen) drawClass(ti int) Class {
	u := g.tenants[ti].r.Float64()
	for i, c := range classCum {
		if u < c {
			return Class(i)
		}
	}
	return NumClasses - 1
}

// ArrivalTrace materialises the first n arrival offsets (in ms) of one
// tenant's open-loop process — the bridge that feeds pipeline sessions
// from the generator instead of fixed-period closed-loop waves (set
// pipeline.Session.ArrivalsMS to the returned slice).
func (t Traffic) ArrivalTrace(tenant, n int) []float64 {
	g := newGen(t)
	if tenant < 0 || tenant >= len(g.tenants) {
		panic(fmt.Sprintf("serve: tenant %d out of range [0,%d)", tenant, len(g.tenants)))
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = g.nextArrival(tenant)
	}
	return out
}
