package chaos

import (
	"fmt"
	"math"

	"ocularone/internal/rng"
	"ocularone/internal/serve"
	"ocularone/internal/thermal"
)

// Dropout configures the device-failure process: a two-state Markov
// chain (up/down) with exponential holding times. Both fields must be
// positive to enable it.
type Dropout struct {
	// MTBFMS is the mean up-time between failures.
	MTBFMS float64
	// MTTRMS is the mean outage duration (time to restart).
	MTTRMS float64
}

// Storm configures the thermal-storm process: exponential clear gaps
// and storm durations, with the storm's ambient rise mapped through
// thermal.StormStress onto the executor's throttle factor.
type Storm struct {
	MeanGapMS float64
	MeanDurMS float64
	// AmbientRiseC is the heat event's rise over nominal ambient;
	// thermal.StormStress(AmbientRiseC) is the imposed inflation.
	AmbientRiseC float64
}

// Link configures the edge–server link-degradation process:
// exponential clear gaps and episode durations, during which every
// completion pays ExtraRTTMS and every arrival is lost with LossProb.
type Link struct {
	MeanGapMS  float64
	MeanDurMS  float64
	ExtraRTTMS float64
	LossProb   float64
}

// SDC configures the silent-data-corruption process: exponential clear
// gaps and episode durations, during which every completion is
// corrupted with probability Prob — the bit-flip regime the integrity
// layer's detectors and retries are measured against.
type SDC struct {
	MeanGapMS float64
	MeanDurMS float64
	Prob      float64
}

// Straggler configures the slow-device process: exponential clear gaps
// and episode durations, during which the primary's service times
// inflate by (1+Factor) — a degrading device running below spec, the
// regime deadline hedging is measured against.
type Straggler struct {
	MeanGapMS float64
	MeanDurMS float64
	Factor    float64
}

// Config is one chaos scenario: up to five independent fault
// processes sharing a seed. The zero value (and any config whose
// processes are all disabled) injects nothing — a server configured
// with it replays the fault-free schedule bit for bit. Every field is
// finite and non-negative; zero switches a process (or one of its
// effects) off.
type Config struct {
	Seed      uint64
	Dropout   Dropout
	Storm     Storm
	Link      Link
	SDC       SDC
	Straggler Straggler
}

// Enabled reports whether any fault process is configured to fire.
func (c Config) Enabled() bool {
	for _, p := range c.processes() {
		if p.armed() {
			return true
		}
	}
	return false
}

// knob is one named Config field of a fault process.
type knob struct {
	name string
	v    float64
}

// process is one fault process of a Config as an alternating-renewal
// process: clear for an exponential gap, then faulted for an
// exponential duration, then clear again. Each draws from its own
// labelled split of the seed, so enabling or disabling one process
// never shifts another's schedule.
type process struct {
	label    string
	gap, dur knob // the means of the clear gap and the fault episode (ms)
	// size holds the fault's magnitudes; a slot without a name is unused.
	size [2]knob
	// on imposes the fault, of magnitudes a and b, at t until the drawn
	// end of its episode; off lifts it.
	on  func(s *serve.Server, t, until, a, b float64)
	off func(s *serve.Server, t float64)

	// Replay state of an injector: active toggles at nextMS.
	enabled bool
	r       *rng.RNG
	nextMS  float64
	active  bool
}

// numProcs is the number of fault processes a Config holds.
const numProcs = 5

// processes is the scenario's table of fault processes. New processes
// append — a process draws from its own split whatever its index, so
// adding one never shifts the schedules (or golden fingerprints) of
// the ones before it.
func (c *Config) processes() [numProcs]process {
	d, st, l, sdc, sg := &c.Dropout, &c.Storm, &c.Link, &c.SDC, &c.Straggler
	return [...]process{{
		label: "dropout",
		gap:   knob{"Dropout.MTBFMS", d.MTBFMS},
		dur:   knob{"Dropout.MTTRMS", d.MTTRMS},
		// The outage's end is known at failure time, so the server can
		// shed doomed arrivals against the restore instant.
		on:  func(s *serve.Server, t, until, _, _ float64) { s.FailDevice(t, until) },
		off: func(s *serve.Server, t float64) { s.RecoverDevice(t) },
	}, {
		label: "storm",
		gap:   knob{"Storm.MeanGapMS", st.MeanGapMS},
		dur:   knob{"Storm.MeanDurMS", st.MeanDurMS},
		size:  [2]knob{{"Storm.AmbientRiseC", st.AmbientRiseC}},
		on:    func(s *serve.Server, t, _, rise, _ float64) { s.SetThermalStress(t, thermal.StormStress(rise)) },
		off:   func(s *serve.Server, t float64) { s.SetThermalStress(t, 0) },
	}, {
		label: "link",
		gap:   knob{"Link.MeanGapMS", l.MeanGapMS},
		dur:   knob{"Link.MeanDurMS", l.MeanDurMS},
		size:  [2]knob{{"Link.ExtraRTTMS", l.ExtraRTTMS}, {"Link.LossProb", l.LossProb}},
		on:    func(s *serve.Server, t, _, rtt, loss float64) { s.SetLink(t, rtt, loss) },
		off:   func(s *serve.Server, t float64) { s.SetLink(t, 0, 0) },
	}, {
		label: "sdc",
		gap:   knob{"SDC.MeanGapMS", sdc.MeanGapMS},
		dur:   knob{"SDC.MeanDurMS", sdc.MeanDurMS},
		size:  [2]knob{{"SDC.Prob", sdc.Prob}},
		on:    func(s *serve.Server, t, _, prob, _ float64) { s.SetSDC(t, prob) },
		off:   func(s *serve.Server, t float64) { s.SetSDC(t, 0) },
	}, {
		label: "straggle",
		gap:   knob{"Straggler.MeanGapMS", sg.MeanGapMS},
		dur:   knob{"Straggler.MeanDurMS", sg.MeanDurMS},
		size:  [2]knob{{"Straggler.Factor", sg.Factor}},
		on:    func(s *serve.Server, t, _, factor, _ float64) { s.SetStraggle(t, factor) },
		off:   func(s *serve.Server, t float64) { s.SetStraggle(t, 0) },
	}}
}

// armed reports whether the process can fire: both means are positive
// and the fault has an effect (some magnitude is positive, or it has
// none, as a dropout).
func (p *process) armed() bool {
	fires := p.size[0].name == "" || p.size[0].v > 0 || p.size[1].v > 0
	return p.gap.v > 0 && p.dur.v > 0 && fires
}

// Injector implements serve.Disruption: it multiplexes the configured
// fault processes onto the server's single outstanding fault event,
// each an alternation of exponential clear gaps and fault episodes.
// Apply allocates nothing — the steady-state 0 allocs/op guarantee of
// the serve loop survives chaos.
type Injector struct {
	seed  uint64
	procs [numProcs]process
}

// New creates an injector for the scenario. Call serve.Config.Disrupt
// = New(cfg); the server calls Reset and Apply. New panics, naming the
// field, on any NaN, infinite or negative field of a process.
func New(cfg Config) *Injector {
	in := &Injector{seed: cfg.Seed, procs: cfg.processes()}
	for i := range in.procs {
		p := &in.procs[i]
		for _, k := range [...]knob{p.gap, p.dur, p.size[0], p.size[1]} {
			if math.IsNaN(k.v) || math.IsInf(k.v, 0) || k.v < 0 {
				panic(fmt.Sprintf("chaos: %s is %v, want finite and non-negative", k.name, k.v))
			}
		}
		p.enabled = p.armed()
	}
	return in
}

// Reset rewinds every fault process and returns the first event time.
func (in *Injector) Reset() (float64, bool) {
	root := rng.New(in.seed)
	for i := range in.procs {
		p := &in.procs[i]
		p.active = false
		if p.enabled {
			p.r = root.Split(p.label)
			p.nextMS = p.r.Exp(p.gap.v)
		}
	}
	return in.next()
}

// next returns the earliest pending transition across enabled
// processes.
func (in *Injector) next() (float64, bool) {
	t, ok := 0.0, false
	for i := range in.procs {
		p := &in.procs[i]
		if p.enabled && (!ok || p.nextMS < t) {
			t, ok = p.nextMS, true
		}
	}
	return t, ok
}

// Apply fires every process transition due at tMS — imposing a fault
// until the end drawn for its episode, or lifting it and drawing the
// next clear gap — and returns the next event time.
func (in *Injector) Apply(s *serve.Server, tMS float64) (float64, bool) {
	for i := range in.procs {
		p := &in.procs[i]
		if !p.enabled || p.nextMS > tMS {
			continue
		}
		p.active = !p.active
		if p.active {
			p.nextMS = tMS + p.r.Exp(p.dur.v)
			p.on(s, tMS, p.nextMS, p.size[0].v, p.size[1].v)
		} else {
			p.off(s, tMS)
			p.nextMS = tMS + p.r.Exp(p.gap.v)
		}
	}
	return in.next()
}

// Canonical regimes of the ext-chaos study, scaled so a 10 s horizon
// sees several complete fault episodes of each kind.

// Baseline is the zero-fault scenario: it must replay the fault-free
// serving study bit for bit (the golden-determinism gate pins this).
func Baseline(seed uint64) Config { return Config{Seed: seed} }

// DropoutRegime fails the device every ~2 s for ~400 ms.
func DropoutRegime(seed uint64) Config {
	return Config{Seed: seed, Dropout: Dropout{MTBFMS: 2000, MTTRMS: 400}}
}

// StormRegime imposes ~800 ms thermal storms (+18 °C ambient) every
// ~1.5 s — roughly a 0.55x service-rate hit while active.
func StormRegime(seed uint64) Config {
	return Config{Seed: seed, Storm: Storm{MeanGapMS: 1500, MeanDurMS: 800, AmbientRiseC: 18}}
}

// LinkRegime degrades the link for ~600 ms episodes every ~1.5 s:
// +40 ms round trip and 15% arrival loss while degraded.
func LinkRegime(seed uint64) Config {
	return Config{Seed: seed, Link: Link{MeanGapMS: 1500, MeanDurMS: 600, ExtraRTTMS: 40, LossProb: 0.15}}
}

// SDCRegime corrupts ~5% of completions during ~700 ms episodes every
// ~1.5 s — the silent-error regime the integrity study measures
// detection coverage and goodput-under-SDC against.
func SDCRegime(seed uint64) Config {
	return Config{Seed: seed, SDC: SDC{MeanGapMS: 1500, MeanDurMS: 700, Prob: 0.05}}
}

// StragglerRegime slows the primary 2.5x (Factor 1.5) for ~800 ms
// episodes every ~1.5 s — the slow-device regime deadline hedging is
// measured against.
func StragglerRegime(seed uint64) Config {
	return Config{Seed: seed, Straggler: Straggler{MeanGapMS: 1500, MeanDurMS: 800, Factor: 1.5}}
}

// Combined runs the three PR-7 processes at once — the scenario the
// golden chaos fingerprints pin. The integrity processes are kept out
// so the historic fingerprints stay valid; IntegrityRegime is the
// superset scenario.
func Combined(seed uint64) Config {
	c := DropoutRegime(seed)
	c.Storm = StormRegime(seed).Storm
	c.Link = LinkRegime(seed).Link
	return c
}

// IntegrityRegime is the integrity study's scenario: fail-stop dropout
// plus silent corruption plus stragglers — the faults retries, hedging,
// and quarantine exist to absorb.
func IntegrityRegime(seed uint64) Config {
	c := DropoutRegime(seed)
	c.SDC = SDCRegime(seed).SDC
	c.Straggler = StragglerRegime(seed).Straggler
	return c
}
