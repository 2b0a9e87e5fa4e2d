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
	// staleness budget (MaxBridged and the forced-refresh clock).
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

// Config is the ladder policy's configuration. It has no fields: the
// staleness budget and cost model below are the one setting every
// program runs. NewPolicy keeps the argument only because the
// repository benchmark (benchmark/probes.go) passes one.
type Config struct{}

// MaxBridged caps consecutive tracker-bridged frames per track. This is
// the same staleness unit as pipeline.StaleSkipPolicy.SlackFrames: both
// bound, in frame periods, how stale the state a consumer sees may
// become — see the doc comment on StaleSkipPolicy for how the two
// clocks compose.
const MaxBridged = 4

const (
	// refreshEvery forces a full-frame pass after this many consecutive
	// non-full rungs — the bound on how long ROI crops, early exits and
	// bridges can compound before re-anchoring against ground truth.
	refreshEvery = 8
	// roiCost and earlyExitCost are the service-time fractions of a
	// full-frame pass charged at those rungs: a 96px plan cropped to
	// the stride-snapped 64px ROI shape costs ~0.44x, and the early-exit
	// head resolves ~70% of frames in its cheap first pass.
	roiCost       = 0.45
	earlyExitCost = 0.70
	// bridgeMS is the modelled cost of answering from the tracker's
	// motion model instead of the device: a table lookup plus box
	// extrapolation, no inference.
	bridgeMS = 0.5
)

// Layer is the ladder's configuration in one embedding tier — the
// serving simulator (serve.Config.Temporal) and the pipeline sessions
// (pipeline.Session.Temporal). The zero value disables the ladder: the
// tier schedules exactly as it did before the ladder existed and
// replays historic results bit for bit.
type Layer struct {
	// Enabled turns the ladder on.
	Enabled bool
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
	ctl *adaptive.Controller

	sinceFull int   // consecutive selections below FullFrame
	forced    int64 // refreshes forced by the staleness clock
}

// NewPolicy returns a ladder policy starting at FullFrame.
func NewPolicy(Config) *Policy {
	return &Policy{ctl: adaptive.NewController(Arms(), int(FullFrame), adaptive.ServingEpoch())}
}

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
	if p.sinceFull >= refreshEvery {
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

// Track is one stream's bridging budget: whether a real inference has
// anchored it, when, and the frames it has bridged in a row since. The
// zero value is an unanchored track, which cannot bridge.
type Track struct {
	anchored bool
	run      int
	anchorMS float64
}

// Anchor re-seeds t after a real inference whose result is back at
// atMS: the bridged run resets.
func (t *Track) Anchor(atMS float64) {
	t.anchored, t.run, t.anchorMS = true, 0, atMS
}

// Bridge answers one frame at nowMS from t's motion model if the
// staleness budget allows — t is anchored and has bridged fewer than
// MaxBridged frames in a row — and returns the answer's staleness, the
// time since t's anchor, and when the answer is back. A bridge
// lengthens t's run and advances the forced-refresh clock Select
// maintains: a bridge is the stalest rung, so the two layers that skip
// frames cannot double-skip silently (see pipeline.StaleSkipPolicy).
func (p *Policy) Bridge(t *Track, nowMS float64) (staleMS, backMS float64, ok bool) {
	if !t.anchored || t.run >= MaxBridged {
		return 0, 0, false
	}
	t.run++
	p.sinceFull++
	return nowMS - t.anchorMS, nowMS + bridgeMS, true
}

// CostScale returns the service-time multiplier charged at rung r
// relative to a full-frame pass (Bridge is 0: no device time at all).
func (p *Policy) CostScale(r Rung) float64 {
	switch r {
	case ROI:
		return roiCost
	case EarlyExit:
		return earlyExitCost
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
