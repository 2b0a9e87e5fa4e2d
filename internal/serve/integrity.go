package serve

// Request-level integrity: silent-data-corruption (SDC) handling,
// bounded retries with deterministic backoff, and deadline hedging
// onto a secondary device.
//
// The SDC fault process (SetSDC, driven by the chaos layer) corrupts
// each completion with a per-request probability while active. The
// compute tier's detectors (ABFT + guards, internal/nn) catch a
// corruption with probability detectCoverage; a detected corruption
// is never served — it retries if the retry policy has attempts and
// budget left, otherwise it completes as a (missed, flagged) response.
// An undetected corruption is served as if clean — the requester
// cannot know — and the study accounts it separately (CorruptServed /
// CorruptSLOMet) to compute goodput-under-SDC.
//
// Hedging reuses the shed-if-doomed admission prediction: when a
// deadline-carrying arrival is predicted to miss on the primary, it is
// admitted anyway and duplicated onto the hedge device immediately
// (the duplicate's completion is computed at arrival — the hedge
// stream is FIFO and arrivals are time-ordered, so this is exact).
// First result wins: if the hedge result is back before the primary
// dispatches the request, the primary copy is cancelled in-queue; if
// the primary serves it first, the effective completion is the earlier
// of the two and the hedge's device time is the overhead paid.
//
// Retry events ride the same event queue as everything else:
// backoff is deterministic (attempt k waits k·BackoffMS), the retry
// budget caps total retries at retryBudgetFrac of admitted requests
// (retry storms cannot melt an already-degraded device), and the pending-
// retry ledger is folded into the admission predictor so a re-queue
// burst after a fault is visible to shed-if-doomed the moment it is
// scheduled, not when it lands back in the queue.
//
// Every knob zero — no retry attempts, no hedging, no SDC process —
// leaves the server's rng streams untouched and the fingerprint
// unchanged: zero-knob runs replay the pre-integrity schedule bit for
// bit (integrity counters are only mixed into the fingerprint when the
// layer is live).

import "ocularone/internal/device"

// RetryPolicy bounds re-execution of detected-corrupt requests.
type RetryPolicy struct {
	// MaxAttempts is the total service attempts per request including
	// the first; <= 1 disables retries.
	MaxAttempts int
	// BackoffMS is the deterministic backoff unit: the k-th retry of a
	// request waits k*BackoffMS after the detection (0 = immediate
	// requeue).
	BackoffMS float64
}

const (
	// retryBudgetFrac caps total retries at this fraction of admitted
	// requests. The budget is what turns a retry storm into bounded,
	// shed-aware degradation.
	retryBudgetFrac = 0.1
	// detectCoverage is the modelled probability the compute tier's
	// detectors catch an injected corruption: the ABFT+guard coverage
	// the ext-integrity study measures (int8 ABFT alone would be 1.0).
	detectCoverage = 0.99
)

// enabled reports whether the policy grants any retries.
func (p RetryPolicy) enabled() bool { return p.MaxAttempts > 1 }

// HedgePolicy duplicates predicted-to-miss requests onto a second
// device.
type HedgePolicy struct {
	// Enabled turns hedging on; Device is the hedge target.
	Enabled bool
	Device  device.ID
	// BudgetFrac caps hedges at this fraction of offered requests
	// (0 selects 0.05): hedging is a tail-latency tool, not a second
	// primary.
	BudgetFrac float64
}

// IntegrityConfig is the request-integrity layer of one serving run.
// The zero value disables all of it.
type IntegrityConfig struct {
	Retry RetryPolicy
	Hedge HedgePolicy
}

// enabled reports whether any request-integrity machinery is active.
func (c IntegrityConfig) enabled() bool {
	return c.Retry.enabled() || c.Hedge.Enabled
}

// retryBudget returns the retry cap for the admitted count so far.
func (s *Server) retryBudget() int64 {
	var admitted int64
	for c := range s.tallies {
		admitted += s.tallies[c].admitted
	}
	return int64(retryBudgetFrac * float64(admitted))
}

// hedgeBudget returns the hedge cap for the offered count so far.
func (s *Server) hedgeBudget() int64 {
	frac := s.cfg.Integrity.Hedge.BudgetFrac
	if frac <= 0 {
		frac = 0.05
	}
	return int64(frac * float64(s.Offered()))
}

// SetSDC imposes (or, at 0, lifts) the silent-data-corruption process:
// while active, each completion on the primary device is corrupted
// with probability prob. Corruption draws come from a dedicated rng
// stream that is only consulted while the process is active, so runs
// that never see SDC replay historic schedules bit for bit.
func (s *Server) SetSDC(now, prob float64) {
	if prob < 0 {
		prob = 0
	} else if prob > 1 {
		prob = 1
	}
	was := s.sdcProb > 0
	s.sdcProb = prob
	if prob > 0 {
		s.sdcSeen = true
	}
	s.faultEdge(now, was, prob > 0)
}

// SetStraggle imposes (or, at 0, lifts) a straggler slowdown on the
// primary device: service times inflate by (1+factor) while set. The
// hedge device is unaffected — a straggling primary is exactly when
// hedging pays.
func (s *Server) SetStraggle(now, factor float64) {
	was := s.ex.Slowdown() > 0
	s.ex.SetSlowdown(factor)
	s.faultEdge(now, was, s.ex.Slowdown() > 0)
}

// integrityLive reports whether integrity accounting is part of this
// run's behaviour (and therefore of its fingerprint): either the
// request-integrity layer is configured, or the SDC process fired at
// least once.
func (s *Server) integrityLive() bool {
	return s.cfg.Integrity.enabled() || s.sdcSeen
}

// hedgeArrival duplicates a just-admitted, predicted-to-miss request
// onto the hedge executor and records when its result would be back.
// Called at arrival: the hedge stream is FIFO and arrivals are
// time-ordered, so computing the duplicate's completion eagerly is
// exact first-result-wins simulation, not an approximation.
func (s *Server) hedgeArrival(r *request, now float64) {
	s.res.Hedges++
	s.hedgeJobs = s.hedgeJobs[:0]
	s.hedgeJobs = append(s.hedgeJobs, device.Job{
		Model:     r.model,
		ArrivalMS: now,
		Precision: s.cfg.Precision,
		Engine:    s.cfg.Engine,
	})
	s.hedgeComps = s.exH.RunBatchInto(s.hedgeComps[:0], s.hedgeJobs)
	r.hedgeDoneMS = s.backAt(s.hedgeComps[0].FinishMS)
}

// completeViaHedge finishes a queued request whose hedge result beat
// the primary: the primary copy is cancelled in-queue (never
// dispatched) and the completion is accounted at the hedge's arrival-
// back time. The tenant is charged attained service — the work was
// done on its behalf, just elsewhere.
func (s *Server) completeViaHedge(ri int32) {
	r := &s.pool[ri]
	s.answer(r.class, r.tenant, r.arrivalMS, r.deadlineMS, r.hedgeDoneMS, false, false)
	s.attained[r.tenant] += r.estMS
	s.res.HedgeWins++
	if s.tpol != nil {
		// The hedge device ran a full-frame pass: it re-anchors the
		// tenant's track exactly like a primary full-frame completion.
		s.tracks[r.tenant].Anchor(r.hedgeDoneMS)
	}
	s.release(ri)
}

// scheduleRetry books a detected-corrupt request for re-execution:
// the record stays allocated, the estimate moves into the pending-
// retry ledger (visible to shed-if-doomed immediately), and the
// requeue fires after the deterministic backoff.
func (s *Server) scheduleRetry(ri int32, finish float64) {
	r := &s.pool[ri]
	r.attempts++
	s.res.Retries++
	s.retryPendingMS += r.estMS
	s.q.Push(Event{
		TimeMS: finish + float64(r.attempts)*s.cfg.Integrity.Retry.BackoffMS,
		Kind:   evRetry,
		A:      ri,
	})
}

// requeue lands a retry back in its FIFO at the backoff expiry. Caps
// and quotas are not re-applied — the request was admitted once and
// its slot accounting never left; expiry still applies through
// liveHead if the deadline lapses first.
func (s *Server) requeue(ri int32, now float64) {
	s.retryPendingMS -= s.pool[ri].estMS
	if s.retryPendingMS < 0 {
		s.retryPendingMS = 0 // float dust from repeated add/subtract
	}
	s.enqueue(ri)
	s.maybeDispatch(now)
}
