package temporal

import "ocularone/internal/adaptive"

// Rung is one step of the cross-frame degradation ladder, ordered
// fastest/least-accurate → slowest/most-accurate so a slice of rungs is
// directly an adaptive.Controller arm spectrum. The ladder labels are
// the L-numbers used in ARCHITECTURE.md §Temporal resilience: L0 is
// full-frame detect, L3 is tracker-only bridging.
type Rung uint8

const (
	// Bridge (L3): no inference at all — a live track's motion-model
	// prediction stands in for the skipped detect frame, inside the
	// staleness budget (MaxBridged, ConfFloor, RefreshEvery).
	Bridge Rung = iota
	// EarlyExit (L2): confidence-based early exit in the detect head —
	// a reduced-resolution first pass that returns as soon as it is
	// confident, falling through to the full head only when not.
	EarlyExit
	// ROI (L1): ROI-cropped re-inference around live tracks, running a
	// plan compiled at the crop shape through the per-shape compile
	// cache (models.AcquireShared).
	ROI
	// FullFrame (L0): the nominal full-frame detect pass.
	FullFrame

	numRungs = 4
)

func (r Rung) String() string {
	switch r {
	case Bridge:
		return "bridge"
	case EarlyExit:
		return "early-exit"
	case ROI:
		return "roi"
	case FullFrame:
		return "full-frame"
	}
	return "rung?"
}

// Config tunes the ladder policy. The zero value selects the defaults
// below; a zero-value (or Enabled=false at the embedding layer) config
// never changes scheduling, so historic fingerprints replay bit for
// bit.
type Config struct {
	// MaxBridged caps consecutive tracker-bridged frames per track
	// (default 4). This is the same staleness unit as
	// pipeline.StaleSkipPolicy.SlackFrames: both bound, in frame
	// periods, how stale the state a consumer sees may become — see the
	// doc comment on StaleSkipPolicy for how the two clocks compose.
	MaxBridged int
	// ConfDecay multiplies a track's bridging confidence per bridged
	// frame (default 0.8, the tracker's own coasting decay, so the serve
	// tier's budget and the tracker agree).
	ConfDecay float64
	// ConfFloor is the minimum confidence at which bridging is still
	// allowed (default 0.3). Once decay crosses the floor the ladder
	// refuses to bridge until a real inference refreshes the track.
	ConfFloor float64
	// RefreshEvery forces a full-frame pass after this many consecutive
	// non-full rungs (default 8) — the bound on how long ROI crops and
	// early exits can compound before re-anchoring against ground truth.
	RefreshEvery int
	// ROICost and EarlyExitCost are the service-time fractions of a
	// full-frame pass charged at those rungs (defaults 0.45 and 0.70:
	// a 96px plan cropped to the stride-snapped 64px ROI shape costs
	// ~0.44x, and the early-exit head resolves ~70% of frames in its
	// cheap first pass).
	ROICost, EarlyExitCost float64
	// Window, MissHi, MissLo tune the embedded adaptive.Controller
	// epoch (defaults 64, 0.25, 0.05 — the serve tier's precision
	// controller constants, so the rung controller and the precision
	// controller walk at the same cadence).
	Window         int
	MissHi, MissLo float64
}

// WithDefaults returns the config with every zero field resolved to
// its default — the resolved view embedding layers and tests compare
// budgets against.
func (c Config) WithDefaults() Config {
	c.defaults()
	return c
}

func (c *Config) defaults() {
	if c.MaxBridged <= 0 {
		c.MaxBridged = 4
	}
	if c.ConfDecay <= 0 {
		c.ConfDecay = 0.8
	}
	if c.ConfFloor <= 0 {
		c.ConfFloor = 0.3
	}
	if c.RefreshEvery <= 0 {
		c.RefreshEvery = 8
	}
	if c.ROICost <= 0 {
		c.ROICost = 0.45
	}
	if c.EarlyExitCost <= 0 {
		c.EarlyExitCost = 0.70
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.MissHi <= 0 {
		c.MissHi = 0.25
	}
	if c.MissLo <= 0 {
		c.MissLo = 0.05
	}
}

// Layer is the ladder's configuration in one embedding tier — the
// serving simulator (serve.Config.Temporal) and the pipeline sessions
// (pipeline.Session.Temporal). The zero value, and Enabled=false with
// any knob set, disables the ladder: the tier schedules exactly as it
// did before the ladder existed and replays historic results bit for
// bit.
type Layer struct {
	// Enabled turns the ladder on.
	Enabled bool
	// Ladder tunes the rung policy and staleness budget (zero values
	// select the defaults above).
	Ladder Config
	// BridgeMS is the modelled cost of answering from the tracker's
	// motion model instead of the device (0 selects 0.5 ms — a table
	// lookup plus box extrapolation, no inference).
	BridgeMS float64
}

// BridgeCostMS returns the effective bridged-response cost.
func (l Layer) BridgeCostMS() float64 {
	if l.BridgeMS > 0 {
		return l.BridgeMS
	}
	return 0.5
}

// Signals are the live pressure inputs a caller samples per decision.
// All of them are observations the serving and pipeline tiers already
// maintain; the policy itself draws no randomness and keeps no clock.
type Signals struct {
	// QueueDelayMS is the executor's current admission delay
	// (device.Executor.AdmissionDelayMS): how long a job offered now
	// waits before service starts.
	QueueDelayMS float64
	// SlackMS is the deadline headroom of the work being scheduled
	// (lead request's deadline - now, or one frame period for a
	// pipeline stream). Zero or negative means no deadline pressure
	// signal is available and only Outage/ThermalStress drive descent.
	SlackMS float64
	// Outage is true while the caller is inside a fault episode
	// (device down-stream recovery, quarantine drain).
	Outage bool
	// ThermalStress is the executor's current thermal throttle factor
	// (0 = nominal; serve uses device.Executor.ThermalStress).
	ThermalStress float64
}

// Arms returns the four-rung arm spectrum for adaptive.Controller,
// ordered fastest→most-accurate as the controller requires; index i is
// exactly Rung(i). Accuracy priors follow the drift study in
// BENCHMARKS.md §PR 10: bridging trades the most accuracy under
// degraded conditions, ROI the least.
func Arms() []adaptive.Arm {
	return []adaptive.Arm{
		{Name: Bridge.String(), Accuracy: 0.90, RobustAccuracy: 0.60},
		{Name: EarlyExit.String(), Accuracy: 0.95, RobustAccuracy: 0.78},
		{Name: ROI.String(), Accuracy: 0.97, RobustAccuracy: 0.85},
		{Name: FullFrame.String(), Accuracy: 0.995, RobustAccuracy: 0.90},
	}
}

// Policy selects the ladder rung per frame. It composes a windowed
// adaptive.Controller over the rung spectrum (slow trend: sustained
// deadline misses walk the arm down, sustained detection failures walk
// it back up) with immediate pressure overrides (queue delay vs
// deadline slack, outage state, thermal throttle) and a hard forced-
// refresh clock. Select is deterministic and allocation-free; the
// policy consumes no randomness, so enabling it perturbs no rng stream.
type Policy struct {
	cfg Config
	ctl *adaptive.Controller

	sinceFull int   // consecutive selections below FullFrame
	forced    int64 // refreshes forced by the staleness clock
}

// NewPolicy returns a ladder policy starting at FullFrame.
func NewPolicy(cfg Config) *Policy {
	cfg.defaults()
	ctl := adaptive.NewController(Arms(), int(FullFrame), adaptive.Config{
		Window: cfg.Window, MissHi: cfg.MissHi, MissLo: cfg.MissLo,
	})
	return &Policy{cfg: cfg, ctl: ctl}
}

// Config returns the policy's resolved configuration (defaults filled).
func (p *Policy) Config() Config { return p.cfg }

// Select returns the rung for the next dispatched inference. It never
// returns Bridge — bridging replaces an inference rather than shaping
// one, so callers bridge explicitly via Bridge before dispatching
// (serve bridges at admission, pipeline before offering the root-stage
// job) and Select governs the work that does reach the device.
//
// Priority order: the forced-refresh clock wins over everything (the
// staleness budget is a hard bound, not a preference); then the rung is
// the lower of the controller's windowed arm and the immediate pressure
// rung, where pressure = QueueDelayMS scaled up by thermal throttle and
// compared against the deadline slack.
func (p *Policy) Select(sig Signals) Rung {
	if p.sinceFull >= p.cfg.RefreshEvery {
		p.forced++
		return p.take(FullFrame)
	}
	r := Rung(p.ctl.ArmIndex())
	if r == Bridge {
		r = EarlyExit // dispatch always does real work
	}
	pressure := sig.QueueDelayMS * (1 + sig.ThermalStress)
	switch {
	case sig.Outage || (sig.SlackMS > 0 && pressure > sig.SlackMS):
		if r > EarlyExit {
			r = EarlyExit
		}
	case sig.SlackMS > 0 && pressure > sig.SlackMS/2:
		if r > ROI {
			r = ROI
		}
	}
	return p.take(r)
}

func (p *Policy) take(r Rung) Rung {
	if r == FullFrame {
		p.sinceFull = 0
	} else {
		p.sinceFull++
	}
	return r
}

// Track is one stream's bridging budget: the frames it has bridged in
// a row, the confidence it has left to bridge on, and when its last real
// inference anchored it. The zero value is an unanchored track, which
// cannot bridge.
type Track struct {
	run      int
	conf     float64
	anchorMS float64
}

// Anchor re-seeds t after a real inference at rung r whose result is
// back at atMS: the bridged run resets and the confidence restarts at
// r's anchor strength (lower rungs anchor less firmly, so their tracks
// exhaust the budget sooner).
func (t *Track) Anchor(r Rung, atMS float64) {
	t.run, t.conf, t.anchorMS = 0, r.Confidence(), atMS
}

// Bridge answers one frame at nowMS from t's motion model if the
// staleness budget allows — fewer than MaxBridged bridges in a row and
// confidence at or above ConfFloor — and returns the answer's staleness,
// the time since t's anchor. A bridge lengthens t's run, decays its
// confidence by ConfDecay and advances the forced-refresh clock Select
// maintains: a bridge is the stalest rung, so the two layers that skip
// frames cannot double-skip silently (see pipeline.StaleSkipPolicy).
func (p *Policy) Bridge(t *Track, nowMS float64) (staleMS float64, ok bool) {
	if t.run < p.cfg.MaxBridged && t.conf >= p.cfg.ConfFloor {
		t.run++
		t.conf *= p.cfg.ConfDecay
		p.sinceFull++
		return nowMS - t.anchorMS, true
	}
	return 0, false
}

// CostScale returns the service-time multiplier charged at rung r
// relative to a full-frame pass (Bridge is 0: no device time at all).
func (p *Policy) CostScale(r Rung) float64 {
	switch r {
	case ROI:
		return p.cfg.ROICost
	case EarlyExit:
		return p.cfg.EarlyExitCost
	case Bridge:
		return 0
	}
	return 1
}

// Confidence returns the track confidence a completed inference at rung
// r re-seeds: lower rungs anchor the track less firmly, so their
// refreshed tracks exhaust the bridging budget sooner.
func (r Rung) Confidence() float64 {
	switch r {
	case ROI:
		return 0.9
	case EarlyExit:
		return 0.8
	case Bridge:
		return 0
	}
	return 1
}

// Observe feeds one completed-frame outcome to the windowed controller:
// deadline misses push toward cheaper rungs, degraded completions
// (bridged, reduced-rung, or precision-degraded responses) act as
// detection-failure pressure pushing back toward full frames.
func (p *Policy) Observe(deadlineMissed, degraded bool) { p.ctl.Observe(deadlineMissed, degraded) }

// Switches reports how many windowed rung adaptations have occurred.
func (p *Policy) Switches() int { return p.ctl.Switches() }

// ForcedRefreshes reports how many full-frame passes the staleness
// clock forced.
func (p *Policy) ForcedRefreshes() int64 { return p.forced }
