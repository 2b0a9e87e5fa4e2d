package serve

// Temporal degradation ladder: the serve-side embedding of
// internal/temporal. Under pressure the dispatcher walks full-frame
// inference down to ROI-cropped and early-exit passes (cheaper device
// jobs at the same rng draws — Job.CostScale rescales the drawn service
// time, so the jitter stream is untouched), and admission converts
// would-be sheds into tracker-bridged responses: a live track's
// predicted box answers the request instantly, inside an explicit
// staleness budget (at most temporal.MaxBridged consecutive bridges per
// tenant, a forced full-frame refresh).
//
// Per-tenant bridge state models one tracked stream per tenant — the
// drone-feed deployment this simulator serves, where each tenant is one
// camera whose MultiTracker state lives server-side. A real completion
// at any rung re-anchors the tenant's track; each bridge lengthens the
// bridged run; the ladder refuses to bridge before the first anchor and
// once the run reaches the budget, and the request sheds exactly as it
// would have without the ladder.
//
// Everything is deterministic: the ladder policy draws no randomness,
// bridged completions are computed inline from the arrival time, and
// the temporal counters join the fingerprint only when the ladder is
// enabled — the disabled configuration replays PR-9 serving
// fingerprints bit for bit (chaos.TestPR9ZeroKnobParity).

import "ocularone/internal/temporal"

// temporalLive reports whether ladder accounting is part of this run's
// behaviour (and therefore of its fingerprint).
func (s *Server) temporalLive() bool { return s.tpol != nil }

// bridge answers a would-be-shed arrival from tenant ti's track if the
// ladder's staleness budget allows one more bridged frame: the request
// is admitted and answered inline at the bridge cost plus link transit,
// and the response's staleness (time since the tenant's last real
// inference) is recorded. Returns false — the caller sheds as before —
// when the budget is spent.
//
// Bridged completions charge no attained service: the device did no
// work, so charging fairness for it would penalise exactly the tenants
// the ladder is rescuing.
func (s *Server) bridge(ti int, c Class, now, deadline float64) bool {
	stale, done, ok := s.tpol.Bridge(&s.tracks[ti], now)
	if !ok {
		return false
	}
	s.tallies[c].admitted++
	s.res.BridgedReqs++
	s.staleHist.Add(stale)
	// A bridged response is a degraded completion: stale-by-one-frame
	// accuracy, fed to both controllers as detection-failure pressure.
	s.answer(c, int32(ti), now, deadline, s.backAt(done), false, true)
	return true
}

// selectRung picks the ladder rung for the batch being dispatched. The
// deadline-pressure signal is the admission predictor's own estimate of
// the queue's drain time over every class (Executor.AdmissionDelayMS is
// zero by construction at dispatch — the device is free — so the queued
// work, batching-corrected, is the delay the next arrival would see);
// slack is the lead request's deadline headroom.
func (s *Server) selectRung(leadDeadline, now float64) temporal.Rung {
	slack := 0.0
	if leadDeadline > 0 {
		slack = leadDeadline - now
	}
	return s.tpol.Select(temporal.Signals{
		QueueDelayMS:  s.queueDelayMS(now, NumClasses-1),
		SlackMS:       slack,
		Outage:        s.faultDepth > 0 || s.pendingRecovery,
		ThermalStress: s.ex.ThermalStress(),
	})
}
