package serve

// Fault surface of the serving simulator. The chaos layer
// (internal/chaos) composes over the server through two pieces defined
// here: the Disruption hook, which schedules fault-process events in
// the server's own event queue so a whole chaos run shares one
// deterministic clock, and the fault mutators (FailDevice,
// RecoverDevice, SetThermalStress, SetLink), which a Disruption calls
// to impose and lift faults. All fault state defaults to zero and the
// fault event is only ever scheduled when Config.Disrupt is non-nil,
// so a server without a disruption replays pre-chaos schedules bit for
// bit — the golden-fingerprint guarantee the chaos gate pins.
//
// Failure semantics are fail-stop at batch boundaries: a device
// failure never aborts the in-flight batch (its completion was already
// committed at dispatch), it blocks new dispatches until the restore
// and leaves the backlog to drain or expire afterwards. Link
// degradation is half-open: lost arrivals never reach admission (they
// are accounted as shed, tracked separately as lost), and surviving
// completions pay the inflated round trip against their deadlines.
//
// Recovery time is measured per fault episode, where an episode spans
// from the first fault becoming active (of possibly several
// overlapping ones) until the last clears: the server records the
// queue depth at fault onset, and the episode counts as recovered when
// the queue first returns to that depth after the clear. That is the
// managed-degradation metric of the study: not whether the system
// survives, but how long until it serves as well as before.

import (
	"ocularone/internal/adaptive"
	"ocularone/internal/device"
)

// Disruption is the fault-process hook a chaos injector implements.
// The server owns the clock: it schedules one outstanding fault event,
// and on each firing calls Apply, which mutates the server's fault
// state and returns the next event time. Reset returns the first event
// time and is called once by NewServer, so the same Disruption value
// can drive repeated runs deterministically.
type Disruption interface {
	// Reset rewinds the fault processes and returns the first fault
	// event time, or ok=false if the disruption never fires.
	Reset() (tMS float64, ok bool)
	// Apply advances the fault processes to tMS — calling fault
	// mutators on s — and returns the next event time, or ok=false if
	// no further events fire.
	Apply(s *Server, tMS float64) (nextMS float64, ok bool)
}

// AdaptConfig enables the adaptive-precision degradation loop: an
// adaptive.Controller watching per-completion deadline outcomes over a
// two-arm precision spectrum (degraded int8, nominal). Under latency
// pressure — overload, a thermal storm, the backlog after an outage —
// the controller downshifts to int8 and the dispatcher serves every
// request quantized (faster, less accurate); once the miss rate falls
// back below the epoch's low mark it upshifts to nominal. Degraded
// completions are fed to the controller as detection failures, which is
// exactly the pressure that drives the upshift: managed degradation,
// then managed recovery. The epoch is adaptive.ServingEpoch.
type AdaptConfig struct {
	// Enabled turns the controller on. It has no effect when the
	// nominal precision is already int8 (no faster arm exists).
	Enabled bool
}

// FailDevice fails the device at now until restoreAtMS: the in-flight
// batch (if any) completes, no new batch dispatches while down, and
// the stream resumes no earlier than the restore. Failing an
// already-failed device extends the outage.
func (s *Server) FailDevice(now, restoreAtMS float64) {
	if restoreAtMS < now {
		restoreAtMS = now
	}
	if s.deviceDown {
		if restoreAtMS > s.downUntilMS {
			s.downUntilMS = restoreAtMS
		}
		return
	}
	s.deviceDown = true
	s.downUntilMS = restoreAtMS
	s.faultEdge(now, false, true)
}

// RecoverDevice restores a failed device at now. The executor's stream
// is held to now (the restart is cold — downtime was idle time, not
// service), and the dispatcher immediately reconsiders the backlog.
func (s *Server) RecoverDevice(now float64) {
	if !s.deviceDown {
		return
	}
	s.deviceDown = false
	s.downUntilMS = 0
	s.ex.HoldUntil(now)
	s.faultEdge(now, true, false)
	s.maybeDispatch(now)
}

// SetThermalStress imposes (or, at 0, lifts) an external service-time
// inflation on the device — the serve-side entry point of thermal
// storms, typically thermal.StormStress of the episode's ambient rise.
func (s *Server) SetThermalStress(now, stress float64) {
	was := s.ex.ThermalStress() > 0
	s.ex.SetThermalStress(stress)
	s.faultEdge(now, was, s.ex.ThermalStress() > 0)
}

// SetLink degrades (or, at 0,0, restores) the edge–server link:
// extraMS inflates every subsequent completion's round trip, and loss
// drops each subsequent arrival with probability lossProb before
// admission. Losses are deterministic per seed (a dedicated rng stream
// that is only consulted while lossProb > 0).
func (s *Server) SetLink(now, extraMS, lossProb float64) {
	if extraMS < 0 {
		extraMS = 0
	}
	if lossProb < 0 {
		lossProb = 0
	} else if lossProb > 1 {
		lossProb = 1
	}
	was := s.linkExtraMS > 0 || s.linkLoss > 0
	s.linkExtraMS, s.linkLoss = extraMS, lossProb
	s.faultEdge(now, was, extraMS > 0 || lossProb > 0)
}

// faultEdge notes one fault process going from active (was) to active
// (is) at now; equal flags are no edge. The first process to become
// active opens an episode
// and records the pre-fault queue depth the recovery check compares
// against; when the last one clears, the episode enters its recovery
// phase, and checkRecovery closes it once the queue drains back to that
// depth.
func (s *Server) faultEdge(now float64, was, is bool) {
	switch {
	case is && !was:
		if s.faultDepth == 0 {
			s.res.FaultEpisodes++
			s.queuedAtFault = s.queued
			s.pendingRecovery = false
		}
		s.faultDepth++
	case was && !is:
		if s.faultDepth > 0 {
			s.faultDepth--
		}
		if s.faultDepth == 0 {
			s.pendingRecovery = true
			s.recoverAtMS = now
		}
	}
}

// checkRecovery closes a pending episode once the backlog has drained
// to the pre-fault depth, and never before the clear itself: Drain
// restores a failed device at its scheduled restore time and then
// handles events stamped earlier. Called after every event while a
// recovery is pending (free in steady state, where pendingRecovery is
// false).
func (s *Server) checkRecovery(now float64) {
	if s.queued > s.queuedAtFault || now < s.recoverAtMS {
		return
	}
	s.pendingRecovery = false
	s.res.Recovered++
	d := now - s.recoverAtMS
	s.recoverySumMS += d
	if d > s.res.MaxRecoveryMS {
		s.res.MaxRecoveryMS = d
	}
}

// initAdapt wires the adaptive-precision controller and its int8
// service table into the server.
func (s *Server) initAdapt(cfg Config, maxB int) {
	if !cfg.Adapt.Enabled || cfg.Precision == device.INT8 {
		return
	}
	s.deg = newSvcTable(cfg, device.INT8, maxB, &s.nom)
	// Start on the nominal arm (index 1); arm 0 is the degraded int8.
	s.ctl = adaptive.NewController(adaptive.PrecisionArms(cfg.Device, cfg.Precision), 1, adaptive.ServingEpoch())
}
