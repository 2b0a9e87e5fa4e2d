package serve

import (
	"fmt"
	"math"
	"math/bits"

	"ocularone/internal/adaptive"
	"ocularone/internal/device"
	"ocularone/internal/models"
	"ocularone/internal/rng"
	"ocularone/internal/temporal"
)

// Event kinds of the serving simulator.
const (
	// evArrival is one request arriving at tenant A's source.
	evArrival uint8 = iota
	// evCompletion is the in-flight batch finishing on the device.
	evCompletion
	// evTimer is the micro-batch window expiring for the oldest
	// undispatched request.
	evTimer
	// evFault is the next fault-process transition of the configured
	// Disruption (see faults.go). At most one is outstanding.
	evFault
	// evRetry is a detected-corrupt request's backoff expiring: the
	// pooled record (index A) re-enters its FIFO (see integrity.go).
	evRetry
)

// Config parameterises one serving run: the device and execution mode
// requests are served with, the open-loop traffic offered to it, and
// the policy layers between the two. Admission itself (deadlines, queue
// cap, tenant quota, doomed shedding) is fixed: see queueCap.
type Config struct {
	// Device serves every request (the shared workstation of the fleet
	// deployments).
	Device device.ID
	// Precision and Engine select the execution mode of every request.
	Precision device.Precision
	Engine    device.Engine
	// Batch configures micro-batch coalescing: up to MaxBatch queued
	// same-model, same-class requests dispatch as one inference, and
	// the dispatcher holds a sub-full batch at most WindowMS past its
	// oldest member's arrival — less if holding would doom the oldest
	// member's deadline.
	Batch device.BatchConfig
	// Traffic is the open-loop arrival process. Its tenant count also
	// sets the tenant quota (Server.quota).
	Traffic Traffic
	// HorizonMS is the simulated duration arrivals are offered for
	// (Run drains the queues afterwards).
	HorizonMS float64
	// LinkRTTms is the baseline edge–server transfer round trip added
	// to every completion's latency and deadline check (0 = co-located,
	// the historic behaviour). Link-degradation episodes add on top.
	LinkRTTms float64
	// Disrupt, when non-nil, injects faults: its events ride the same
	// event queue as arrivals and completions, so a chaos run is as
	// deterministic as a clean one. See faults.go and internal/chaos.
	Disrupt Disruption
	// Adapt enables the adaptive-precision degradation loop
	// (see AdaptConfig in faults.go).
	Adapt AdaptConfig
	// Integrity configures request-level silent-error handling: retry
	// of detected corruptions, deadline hedging onto a second device,
	// at the modelled detection coverage (see integrity.go). The zero
	// value disables all of it and replays pre-integrity schedules bit
	// for bit.
	Integrity IntegrityConfig
	// Temporal switches on the cross-frame degradation ladder: ROI and
	// early-exit dispatch rungs under deadline pressure and tracker-
	// bridged responses for would-be sheds, inside the ladder's fixed
	// staleness budget (see temporal.go and internal/temporal). The
	// zero value disables the ladder and replays pre-temporal schedules
	// bit for bit.
	Temporal temporal.Layer
}

// queueCap bounds the requests queued across all tenants. Admission has
// no knob: an arrival is shed at the cap or at its tenant's quota, and a
// deadline-carrying arrival whose predicted completion already misses
// is shed (or hedged, when the hedge policy allows), so the device never
// spends service on a request that cannot meet its SLO.
const queueCap = 512

// sloScale is the per-class deadline budget as a multiple of the
// request model's batch-1 service time on the serving device: an
// interactive yolov8n request gets a much tighter absolute deadline
// than an interactive yolov8x one, which keeps goodput comparable
// across heterogeneous mixes. The scales are sized against the default
// 25 ms micro-batch window — a nano detector's interactive budget
// (~30 ms) admits one batching window plus service, not less, so SLOs
// constrain queueing rather than forbid batching. 0 means no deadline.
var sloScale = [NumClasses]float64{30, 100, 0}

// DefaultConfig is the reference serving configuration of the
// ext-serve study: the shared RTX 4090 workstation serving the default
// eight-model mix from 16 bursty diurnal tenants, micro-batch 8 within
// a 25 ms window.
func DefaultConfig(horizonMS float64, seed uint64) Config {
	return Config{
		Device: device.RTX4090,
		Batch:  device.BatchConfig{MaxBatch: 8, WindowMS: 25},
		Traffic: Traffic{
			RatePerSec:      1000, // overwritten by load sweeps
			Tenants:         16,
			DiurnalAmp:      0.4,
			DiurnalPeriodMS: 60_000,
			BurstMult:       4,
			BurstOnMS:       500,
			BurstOffMS:      4500,
			Seed:            seed,
		},
		HorizonMS: horizonMS,
	}
}

// request is one pooled in-flight request record. Records are
// index-linked (next) into per-(class, tenant, model) FIFO queues and
// recycled through a free list, so the steady state allocates nothing.
type request struct {
	arrivalMS  float64
	deadlineMS float64 // 0 = none
	estMS      float64 // batch-1 service estimate, the admission unit
	// hedgeDoneMS, when positive, is when this request's hedged
	// duplicate's result arrives back (integrity.go); 0 = not hedged.
	hedgeDoneMS float64
	model       models.ID
	class       Class
	tenant      int32
	next        int32
	// attempts counts service attempts consumed by detected-corrupt
	// retries (0 until the first detection).
	attempts uint8
}

// fifo is one intrusive queue over the request pool.
type fifo struct{ head, tail int32 }

// tally accumulates one class's counters. lost counts arrivals dropped
// by a degraded link; every lost request is also counted shed, so the
// conservation invariants (and the fingerprint, which mixes shed) are
// untouched by the extra ledger.
type tally struct {
	offered, admitted, shed, expired, completed, sloMet int64
	lost                                                int64
	lat                                                 Hist
}

const numModels = int(models.NumModels)

// Server.occ holds one bit per model in a uint8; this stops compiling
// past eight models.
const _ = uint8(1 << (numModels - 1))

// svcTable is the service model of one precision: estMS[m] is model
// m's batch-1 service, fullBatchMS[m] its whole-batch service at
// MaxBatch (the latest-safe-dispatch bound of the window hold), and
// batchEff rescales queued batch-1 work to its batched service cost
// (mix-weighted, <= 1) so admission predictions match the rate the
// dispatcher actually drains the queue at.
type svcTable struct {
	estMS       [models.NumModels]float64
	fullBatchMS [models.NumModels]float64
	batchEff    float64
	prec        device.Precision
}

// newSvcTable predicts every model's service at prec on the config's
// device. batchEff is expressed per batch-1 unit of base (the table
// itself when base is nil): the queue is charged in nominal estimates,
// so the degraded table's efficiency is per nominal unit and the
// admission rescale composes.
func newSvcTable(cfg Config, prec device.Precision, maxB int, base *svcTable) svcTable {
	t := svcTable{prec: prec}
	for m := models.ID(0); m < models.NumModels; m++ {
		t.estMS[m] = device.PredictMS(m, cfg.Device, prec, cfg.Engine)
		t.fullBatchMS[m] = device.PredictBatchMSEng(m, cfg.Device, maxB, prec, cfg.Engine)
	}
	if base == nil {
		base = &t
	}
	var b1, bN float64
	for m := range modelCum {
		share := modelCum[m]
		if m > 0 {
			share -= modelCum[m-1]
		}
		b1 += share * base.estMS[m]
		bN += share * t.fullBatchMS[m] / float64(maxB)
	}
	t.batchEff = 1
	if b1 > 0 {
		t.batchEff = bN / b1
	}
	return t
}

// Server is the open-loop serving simulator: an event-heap core
// feeding admission control, per-class SLO scheduling, and
// least-attained-service tenant fairness on top of one device.Executor.
// Use NewServer + AdvanceTo/Drain for incremental control (benchmarks,
// live dashboards) or Run for a complete horizon-and-drain study.
type Server struct {
	cfg Config
	g   *gen
	q   *CalQueue
	ex  *device.Executor

	// nom is the configured precision's service model — nom.estMS is
	// the deterministic estimate deadlines, the queue's charge and
	// fairness are in; deg is the int8 one the adaptive controller
	// degrades to (zero unless Adapt is live). svc picks the live one.
	nom, deg svcTable

	pool []request
	free int32

	// queues[c] is a flat [tenant][model] grid of FIFOs: per-model
	// queues are what make same-model micro-batches findable behind
	// heterogeneous arrival order, per-tenant queues are what the
	// fairness scheduler arbitrates between.
	queues [NumClasses][]fifo
	// occ[c][t] has bit m set exactly when FIFO (c, t, m) is non-empty:
	// the dispatch scans probe only those.
	occ          [NumClasses][]uint8
	classCount   [NumClasses]int64
	classEstMS   [NumClasses]float64
	queued       int64
	tenantQueued []int64
	// quota partitions the cap among the tenants, queueCap / tenants
	// and at least 1 (16 × 32 = 512 at DefaultConfig): up to queueCap
	// tenants, a flooding tenant exhausts its own quota before the shared
	// queue, so cap shedding never hits tenants below their fair share.
	quota int64
	// attained is each tenant's charged service; the dispatcher always
	// serves the least-attained tenant with eligible work, which is
	// max-min fair under the Zipf-skewed offered load.
	attained []float64

	nowMS    float64
	timerAt  float64
	draining bool

	// Fault state (mutated through faults.go; all zero when no
	// Disruption is configured).
	deviceDown  bool
	downUntilMS float64
	linkExtraMS float64
	linkLoss    float64
	lossRNG     *rng.RNG
	// Fault-episode recovery accounting.
	faultDepth      int
	queuedAtFault   int64
	pendingRecovery bool
	recoverAtMS     float64
	recoverySumMS   float64

	// Request-integrity state (integrity.go; all zero when the layer
	// is off and no SDC process ever fired).
	sdcProb        float64
	sdcSeen        bool
	sdcRNG         *rng.RNG
	exH            *device.Executor // hedge executor, nil unless hedging on
	retryPendingMS float64          // estMS of detections awaiting their evRetry
	hedgeJobs      []device.Job
	hedgeComps     []device.Completion

	// Temporal-ladder state (temporal.go; nil unless Temporal.Enabled):
	// one bridging budget per tenant.
	tpol      *temporal.Policy
	tracks    []temporal.Track
	staleHist Hist

	// Adaptive-precision state (nil/false unless Adapt is enabled).
	ctl      *adaptive.Controller
	degraded bool

	// dispatch scratch, recycled across batches.
	jobs      []device.Job
	comps     []device.Completion
	batchReqs []int32

	// metrics: per-class tallies, and the run-wide counters kept in
	// res under their Result names (Result derives the rest).
	tallies      [NumClasses]tally
	batchedReqs  int64
	busyMS       float64
	lastFinishMS float64
	res          Result
}

// NewServer materialises the generator and event queue and schedules
// every tenant's first arrival. It panics, by name, on a HorizonMS that
// is NaN or infinite, on a retry backoff or hedge budget that is
// negative, NaN or infinite, and on a Traffic config the generator
// refuses.
func NewServer(cfg Config) *Server {
	if h := cfg.HorizonMS; math.IsNaN(h) || math.IsInf(h, 0) {
		panic(fmt.Sprintf("serve: Config.HorizonMS must be finite, got %v", h))
	}
	// A negative backoff schedules a retry before its failed attempt
	// finished, a non-finite one poisons the event heap, and a hedge
	// budget that is not a finite non-negative share silently runs
	// another one.
	for _, k := range []struct {
		name string
		v    float64
	}{
		{"RetryPolicy.BackoffMS", cfg.Integrity.Retry.BackoffMS}, {"HedgePolicy.BudgetFrac", cfg.Integrity.Hedge.BudgetFrac},
	} {
		if !(k.v >= 0) || math.IsInf(k.v, 1) {
			panic(fmt.Sprintf("serve: %s must be finite and non-negative, got %v", k.name, k.v))
		}
	}
	g := newGen(cfg.Traffic)
	nt := len(g.tenants)
	s := &Server{
		cfg:          cfg,
		g:            g,
		q:            NewCalQueue(2*nt+8, 0),
		ex:           device.NewExecutor(cfg.Device, cfg.Traffic.Seed*0x9e3779b97f4a7c15+uint64(cfg.Device)+1),
		free:         -1,
		tenantQueued: make([]int64, nt),
		quota:        int64(max(1, queueCap/nt)),
		attained:     make([]float64, nt),
		res: Result{
			HorizonMS:       cfg.HorizonMS,
			TenantCompleted: make([]int64, nt),
			TenantOffered:   make([]int64, nt),
		},
	}
	maxB := cfg.Batch.MaxBatch
	if maxB < 1 {
		maxB = 1
	}
	s.nom = newSvcTable(cfg, cfg.Precision, maxB, nil)
	for c := range s.queues {
		s.queues[c] = make([]fifo, nt*numModels)
		for i := range s.queues[c] {
			s.queues[c][i] = fifo{head: -1, tail: -1}
		}
		s.occ[c] = make([]uint8, nt)
	}
	// The loss stream is dedicated and only consulted while a
	// link-degradation episode sets lossProb > 0, so fault-free runs
	// draw nothing from it and replay historic schedules bit for bit.
	s.lossRNG = rng.New(cfg.Traffic.Seed ^ 0x6c696e6b6c6f7373)
	// Same contract for the corruption stream: only consulted while the
	// SDC process is active.
	s.sdcRNG = rng.New(cfg.Traffic.Seed ^ 0x7364637364637364)
	if cfg.Integrity.Hedge.Enabled {
		s.exH = device.NewExecutor(cfg.Integrity.Hedge.Device,
			cfg.Traffic.Seed*0x9e3779b97f4a7c15+uint64(cfg.Integrity.Hedge.Device)+0x6865646765)
		s.hedgeJobs = make([]device.Job, 0, 1)
		s.hedgeComps = make([]device.Completion, 0, 1)
	}
	s.initAdapt(cfg, maxB)
	if cfg.Temporal.Enabled {
		s.tpol = temporal.NewPolicy(temporal.Config{})
		s.tracks = make([]temporal.Track, nt)
	}
	for ti := range g.tenants {
		s.q.Push(Event{TimeMS: g.nextArrival(ti), Kind: evArrival, A: int32(ti)})
	}
	if cfg.Disrupt != nil {
		if t, ok := cfg.Disrupt.Reset(); ok {
			s.q.Push(Event{TimeMS: t, Kind: evFault})
		}
	}
	return s
}

// Offered reports the requests offered so far across all classes.
func (s *Server) Offered() int64 {
	var n int64
	for c := range s.tallies {
		n += s.tallies[c].offered
	}
	return n
}

// AdvanceTo processes every event scheduled at or before tMS.
func (s *Server) AdvanceTo(tMS float64) {
	for {
		e, ok := s.q.Peek()
		if !ok || e.TimeMS > tMS {
			return
		}
		s.q.Pop()
		s.handle(e)
	}
}

// Drain stops offering new arrivals and runs the simulation until every
// admitted request has completed or expired.
func (s *Server) Drain() {
	s.draining = true
	if s.deviceDown {
		// The fault source switches off with the arrival source, so the
		// pending restore event will be ignored; resolve the outage here
		// — service resumes at the scheduled restore and the backlog
		// drains from there.
		s.RecoverDevice(s.downUntilMS)
	}
	s.maybeDispatch(s.nowMS)
	for {
		e, ok := s.q.Pop()
		if !ok {
			return
		}
		s.handle(e)
	}
}

// handle processes one event.
func (s *Server) handle(e Event) {
	s.nowMS = e.TimeMS
	s.res.Events++
	switch e.Kind {
	case evArrival:
		if s.draining {
			return // the horizon has passed; the source is switched off
		}
		s.arrive(int(e.A), e.TimeMS)
	case evCompletion:
		s.maybeDispatch(e.TimeMS)
	case evTimer:
		if e.TimeMS != s.timerAt {
			return // superseded: the batch it guarded already dispatched
		}
		s.timerAt = 0
		s.maybeDispatch(e.TimeMS)
	case evFault:
		if s.draining || s.cfg.Disrupt == nil {
			return // fault processes switch off with the arrival source
		}
		if next, ok := s.cfg.Disrupt.Apply(s, e.TimeMS); ok {
			s.q.Push(Event{TimeMS: next, Kind: evFault})
		}
	case evRetry:
		// Retries are admitted work; they land even while draining.
		s.requeue(e.A, e.TimeMS)
	}
	if s.pendingRecovery {
		s.checkRecovery(e.TimeMS)
	}
}

// arrive draws one request for tenant ti, runs admission, and schedules
// the tenant's next arrival.
func (s *Server) arrive(ti int, now float64) {
	m := s.g.drawModel(ti)
	c := s.g.drawClass(ti)
	est := s.nom.estMS[m]
	deadline := 0.0
	if scale := sloScale[c]; scale > 0 {
		deadline = now + scale*est
	}
	s.tallies[c].offered++
	s.res.TenantOffered[ti]++

	// Self-perpetuating open loop: the source emits the next arrival
	// regardless of what admission decides — that is what distinguishes
	// open-loop offered load from the closed-loop benchmark waves.
	s.q.Push(Event{TimeMS: s.g.nextArrival(ti), Kind: evArrival, A: int32(ti)})

	if s.linkLoss > 0 && s.lossRNG.Bool(s.linkLoss) {
		// Degraded uplink: the request never reaches admission. Lost is
		// a sub-ledger of shed, so conservation holds unchanged.
		s.tallies[c].shed++
		s.tallies[c].lost++
		return
	}
	if s.queued >= queueCap || s.tenantQueued[ti] >= s.quota {
		s.shed(ti, c, now, deadline, false)
		return
	}
	// Predicted completion: the queue's delay for this class, this
	// request's own service at the live precision, and the link round
	// trip. A predicted miss on the primary hedges if the policy and
	// budget allow, and sheds otherwise.
	doomed := deadline > 0 && s.backAt(now+s.queueDelayMS(now, c)+s.svc().estMS[m]) > deadline
	hedge := doomed && s.exH != nil && s.res.Hedges < s.hedgeBudget()
	if doomed && !hedge {
		s.shed(ti, c, now, deadline, true)
		return
	}
	s.tallies[c].admitted++

	ri := s.alloc()
	s.pool[ri] = request{arrivalMS: now, deadlineMS: deadline, estMS: est, model: m, class: c, tenant: int32(ti)}
	if hedge {
		s.hedgeArrival(&s.pool[ri], now)
	}
	s.enqueue(ri)
	s.maybeDispatch(now)
}

// shed refuses an arrival at admission — queue cap, tenant quota, or a
// doomed deadline — unless the ladder answers it from the tenant's
// track (see temporal.go). A doomed refusal is a deadline miss to the
// controllers.
func (s *Server) shed(ti int, c Class, now, deadline float64, doomed bool) {
	if s.tpol != nil && s.bridge(ti, c, now, deadline) {
		return
	}
	s.tallies[c].shed++
	if doomed {
		s.observe(true, false)
	}
}

// queueDelayMS predicts how long work of class c offered at now waits
// for service: the residual service of the in-flight batch (or the
// remaining outage of a failed device, whichever holds the stream
// longer), plus the queued work of c and every more urgent class
// rescaled by the live precision's batching efficiency. Pending retries
// are part of the queue the moment they are scheduled (retryPendingMS),
// so a detection burst after a fault is visible here before it lands
// back in the FIFOs.
func (s *Server) queueDelayMS(now float64, c Class) float64 {
	wait := s.ex.AdmissionDelayMS(now)
	if s.deviceDown && s.downUntilMS-now > wait {
		wait = s.downUntilMS - now
	}
	ahead := s.retryPendingMS
	for cc := Class(0); cc <= c; cc++ {
		ahead += s.classEstMS[cc]
	}
	return wait + ahead*s.svc().batchEff
}

// svc returns the service model of the precision the dispatcher serves
// at now.
func (s *Server) svc() *svcTable {
	if s.degraded {
		return &s.deg
	}
	return &s.nom
}

// backAt returns when a response finished at tMS is back at the
// requester: the link round trip plus any degradation episode's
// surcharge, which counts against the deadline like any other latency.
func (s *Server) backAt(tMS float64) float64 {
	return tMS + s.cfg.LinkRTTms + s.linkExtraMS
}

// answer records one response — served, hedge-won, bridged, or flagged
// and dropped — to a class-c request of tenant ti that arrived at
// arrivalMS and is back at backMS, and feeds its outcome to the
// controllers. A flagged response is a completion that never meets its
// SLO. Reports whether the deadline was missed.
func (s *Server) answer(c Class, ti int32, arrivalMS, deadlineMS, backMS float64, flagged, degraded bool) (missed bool) {
	t := &s.tallies[c]
	t.completed++
	missed = flagged || (deadlineMS > 0 && backMS > deadlineMS)
	if !missed {
		t.sloMet++
	}
	t.lat.Add(backMS - arrivalMS)
	s.res.TenantCompleted[ti]++
	s.observe(missed, degraded)
	return missed
}

// observe feeds one request outcome to the adaptive-precision
// controller (no-op when Adapt is off). Expired and doomed-shed
// requests count as deadline misses — admission and expiry convert
// would-be late completions into non-completions, so completion
// misses alone would hide exactly the pressure the controller must
// react to.
func (s *Server) observe(missed, degraded bool) {
	if s.tpol != nil {
		// The rung controller walks on the same outcome stream as the
		// precision controller: misses push down the ladder, degraded
		// completions (bridged, reduced-rung, or int8) push back up.
		s.tpol.Observe(missed, degraded)
	}
	if s.ctl == nil {
		return
	}
	if s.ctl.Observe(missed, degraded) {
		s.degraded = s.ctl.ArmIndex() == 0
	}
}

// alloc takes a request record from the free list, growing the pool
// only when the outstanding population reaches a new high-water mark.
func (s *Server) alloc() int32 {
	if s.free >= 0 {
		ri := s.free
		s.free = s.pool[ri].next
		return ri
	}
	s.pool = append(s.pool, request{})
	return int32(len(s.pool) - 1)
}

func (s *Server) release(ri int32) {
	s.pool[ri].next = s.free
	s.free = ri
}

// enqueue appends record ri to the tail of its (class, tenant, model)
// FIFO — the inverse of removeHead.
func (s *Server) enqueue(ri int32) {
	r := &s.pool[ri]
	r.next = -1
	qq := &s.queues[r.class][int(r.tenant)*numModels+int(r.model)]
	if qq.tail >= 0 {
		s.pool[qq.tail].next = ri
	} else {
		qq.head = ri
		s.occ[r.class][r.tenant] |= 1 << r.model
	}
	qq.tail = ri
	s.classCount[r.class]++
	s.classEstMS[r.class] += r.estMS
	s.tenantQueued[r.tenant]++
	s.queued++
}

// removeHead unlinks the head of queue qi in class c and returns its
// index. The record is NOT released — callers either recycle it
// (expiry) or keep it alive through batch accounting (dispatch).
func (s *Server) removeHead(c Class, qi int) int32 {
	qq := &s.queues[c][qi]
	ri := qq.head
	r := &s.pool[ri]
	qq.head = r.next
	if qq.head < 0 {
		qq.tail = -1
		s.occ[c][r.tenant] &^= 1 << r.model
	}
	s.classCount[c]--
	s.classEstMS[c] -= r.estMS
	s.tenantQueued[r.tenant]--
	s.queued--
	return ri
}

// liveHead pops expired requests off the head of queue qi in class c
// and returns the first live head, or -1. Expiry is the dispatch-time
// half of SLO shedding: a request whose deadline already passed is
// abandoned rather than served — serving it would burn device time on
// work the requester has given up on.
func (s *Server) liveHead(c Class, qi int, now float64) int32 {
	qq := &s.queues[c][qi]
	for qq.head >= 0 {
		r := &s.pool[qq.head]
		if r.hedgeDoneMS > 0 && r.hedgeDoneMS <= now {
			// First result wins: the hedged duplicate is back before the
			// primary dispatched this copy — serve the hedge result and
			// cancel the primary copy in-queue.
			s.completeViaHedge(s.removeHead(c, qi))
			continue
		}
		if r.deadlineMS == 0 || now <= r.deadlineMS {
			return qq.head
		}
		s.tallies[c].expired++
		s.observe(true, false)
		s.release(s.removeHead(c, qi))
	}
	return -1
}

// maybeDispatch forms and dispatches at most one micro-batch if the
// device is free: strict priority across classes, least-attained-
// service fairness across tenants within the class, same-model
// coalescing within the batch, and a deadline-capped WindowMS hold for
// sub-full batches. A held class does not block lower classes — the
// dispatcher stays work-conserving while the window timer runs.
func (s *Server) maybeDispatch(now float64) {
	if s.deviceDown {
		return // fail-stop: the restore will retrigger
	}
	if s.ex.BusyUntilMS() > now {
		return // the completion event will retrigger
	}
	maxB := s.cfg.Batch.MaxBatch
	if maxB < 1 {
		maxB = 1
	}
	for c := Class(0); c < NumClasses; c++ {
		if s.classCount[c] == 0 {
			continue
		}
		// Lead request: the oldest live request of the least-attained
		// tenant with work in this class.
		leadT, leadQ := -1, -1
		var leadArr float64
		for ti, occ := range s.occ[c] {
			if occ == 0 {
				continue
			}
			if leadT >= 0 && s.attained[ti] >= s.attained[leadT] {
				continue
			}
			bestQ := -1
			var bestArr float64
			// Non-empty FIFOs in ascending model order; a probe's expiries
			// touch only its own FIFO's bit.
			for ; occ != 0; occ &= occ - 1 {
				qi := ti*numModels + bits.TrailingZeros8(occ)
				h := s.liveHead(c, qi, now)
				if h < 0 {
					continue
				}
				if arr := s.pool[h].arrivalMS; bestQ < 0 || arr < bestArr {
					bestQ, bestArr = qi, arr
				}
			}
			if bestQ < 0 {
				continue
			}
			leadT, leadQ, leadArr = ti, bestQ, bestArr
		}
		if leadQ < 0 {
			continue // everything queued in this class had expired
		}
		lead := &s.pool[s.queues[c][leadQ].head]
		if s.cfg.Batch.Enabled() && !s.draining && s.classCount[c] < int64(maxB) {
			// Hold a sub-full batch up to the window, but never past the
			// lead's last safe dispatch instant.
			hold := leadArr + s.cfg.Batch.WindowMS
			if lead.deadlineMS > 0 {
				full := s.svc().fullBatchMS[lead.model]
				if safe := lead.deadlineMS - full - s.cfg.LinkRTTms - s.linkExtraMS; safe < hold {
					hold = safe
				}
			}
			if now < hold {
				if s.timerAt == 0 {
					s.timerAt = hold
					s.q.Push(Event{TimeMS: hold, Kind: evTimer})
				}
				continue // stay work-conserving: consider lower classes
			}
		}
		s.dispatch(c, lead.model, lead.deadlineMS, now, maxB)
		return
	}
}

// dispatch coalesces up to maxB model-m requests of class c —
// repeatedly taking from the least-attained tenant with eligible work —
// and serves them as one inference. With the temporal ladder enabled,
// the whole batch runs at one selected rung: full-frame, ROI-cropped,
// or early-exit, with the rung's cost scale applied uniformly so the
// coalesced kernel stays one compiled program.
func (s *Server) dispatch(c Class, m models.ID, leadDeadline, now float64, maxB int) {
	prec := s.svc().prec
	rung := temporal.FullFrame
	costScale := 0.0 // zero value: nominal, bit-for-bit replay
	if s.tpol != nil {
		rung = s.selectRung(leadDeadline, now)
		costScale = s.tpol.CostScale(rung)
	}
	s.batchReqs = s.batchReqs[:0]
	s.jobs = s.jobs[:0]
	bit := uint8(1) << m
	// The first scan probes every tenant's model-m FIFO: dead heads
	// expire and emptied FIFOs clear their bit, so from then on a set bit
	// is a live head, bar the FIFO the last member was taken from, which
	// is probed again. Probing a live head changes nothing, so expiries
	// fall as they would if every scan probed every FIFO.
	taken := -1
	for len(s.batchReqs) < maxB {
		if taken >= 0 {
			s.liveHead(c, taken*numModels+int(m), now)
		}
		best := -1
		for ti, occ := range s.occ[c] {
			if occ&bit == 0 || (taken < 0 && s.liveHead(c, ti*numModels+int(m), now) < 0) {
				continue
			}
			if best < 0 || s.attained[ti] < s.attained[best] {
				best = ti
			}
		}
		if best < 0 {
			break
		}
		taken = best
		ri := s.removeHead(c, best*numModels+int(m))
		r := &s.pool[ri]
		s.attained[best] += r.estMS
		s.batchReqs = append(s.batchReqs, ri)
		s.jobs = append(s.jobs, device.Job{
			Model:     m,
			ArrivalMS: now, // the scheduler releases the batch now
			Precision: prec,
			Engine:    s.cfg.Engine,
			CostScale: costScale,
		})
	}
	if len(s.batchReqs) == 0 {
		return
	}

	s.comps = s.ex.RunBatchInto(s.comps[:0], s.jobs)
	finish := s.comps[0].FinishMS
	start := s.comps[0].StartMS
	arriveBack := s.backAt(finish)
	degraded := s.degraded
	for _, ri := range s.batchReqs {
		r := &s.pool[ri]
		back := arriveBack
		hedgeWin := false
		if r.hedgeDoneMS > 0 && r.hedgeDoneMS < back {
			back = r.hedgeDoneMS // first result wins
			hedgeWin = true
		}
		servedCorrupt := false
		if s.sdcProb > 0 && s.sdcRNG.Bool(s.sdcProb) {
			// Silent corruption on the primary's result. The compute
			// tier's detectors (ABFT + guards) catch it with the modelled
			// coverage; a detected corruption is never served.
			s.res.SDCInjected++
			detected := s.sdcRNG.Bool(detectCoverage)
			if detected {
				s.res.CorruptDetected++
			}
			switch {
			case hedgeWin:
				// The duplicate's clean result was served either way; the
				// corrupt primary result is discarded.
			case detected && r.hedgeDoneMS > 0:
				// The hedge lost the race but its result is clean and the
				// primary's is not — serve the hedge result late rather
				// than retry.
				back = r.hedgeDoneMS
				hedgeWin = true
			case detected && s.cfg.Integrity.Retry.enabled() &&
				1+int(r.attempts) < s.cfg.Integrity.Retry.MaxAttempts &&
				s.res.Retries < s.retryBudget():
				s.scheduleRetry(ri, finish)
				continue
			case detected:
				// Out of attempts or budget: the flagged response is
				// dropped — a completion that can never meet its SLO, not
				// a served corruption.
				s.res.RetriesGivenUp++
				s.answer(r.class, r.tenant, r.arrivalMS, r.deadlineMS, back, true, degraded)
				s.release(ri)
				continue
			default:
				// Undetected: served as if clean — the requester cannot
				// know — and ledgered for the goodput-under-SDC study.
				s.res.CorruptServed++
				servedCorrupt = true
			}
		}
		if hedgeWin {
			s.res.HedgeWins++
		}
		if degraded {
			s.res.DegradedReqs++
		}
		// Degraded completions — int8, or a reduced ladder rung — are
		// fed as detection failures: the accuracy cost that upshifts the
		// controllers back to nominal once misses subside.
		missed := s.answer(r.class, r.tenant, r.arrivalMS, r.deadlineMS, back, false,
			degraded || rung != temporal.FullFrame)
		if servedCorrupt && !missed {
			s.res.CorruptSLOMet++
		}
		if s.tpol != nil {
			switch rung {
			case temporal.ROI:
				s.res.ROIReqs++
			case temporal.EarlyExit:
				s.res.EarlyExitReqs++
			}
			s.tracks[r.tenant].Anchor(back)
		}
		s.release(ri)
	}
	s.res.Batches++
	s.batchedReqs += int64(len(s.batchReqs))
	s.busyMS += finish - start
	s.lastFinishMS = finish
	s.q.Push(Event{TimeMS: finish, Kind: evCompletion})
}

// ClassStats summarises one priority class of a completed run.
type ClassStats struct {
	Class    string `json:"class"`
	Offered  int64  `json:"offered"`
	Admitted int64  `json:"admitted"`
	Shed     int64  `json:"shed"`
	// Lost is the link-lost sub-ledger of Shed.
	Lost      int64   `json:"lost,omitempty"`
	Expired   int64   `json:"expired"`
	Completed int64   `json:"completed"`
	SLOMet    int64   `json:"slo_met"`
	P50MS     float64 `json:"p50_ms"`
	P99MS     float64 `json:"p99_ms"`
	MeanMS    float64 `json:"mean_ms"`
	MaxMS     float64 `json:"max_ms"`
}

// Result aggregates one serving run. Every field is a pure function of
// the Config — wall-clock measurements live in Outcome, not here —
// so two runs with the same seed produce identical Results, which
// Fingerprint turns into a single comparable word.
type Result struct {
	HorizonMS     float64                `json:"horizon_ms"`
	Classes       [NumClasses]ClassStats `json:"classes"`
	Offered       int64                  `json:"offered"`
	Admitted      int64                  `json:"admitted"`
	Shed          int64                  `json:"shed"`
	Expired       int64                  `json:"expired"`
	Completed     int64                  `json:"completed"`
	SLOMet        int64                  `json:"slo_met"`
	Batches       int64                  `json:"batches"`
	MeanBatch     float64                `json:"mean_batch"`
	Utilization   float64                `json:"utilization"`
	Events        int64                  `json:"events"`
	GoodputPerSec float64                `json:"goodput_per_sec"`
	OfferedPerSec float64                `json:"offered_per_sec"`
	ShedRate      float64                `json:"shed_rate"`
	// TenantCompleted is indexed by tenant — the fairness evidence.
	TenantCompleted []int64 `json:"tenant_completed"`
	TenantOffered   []int64 `json:"tenant_offered"`

	// Chaos accounting (all zero on fault-free runs).
	//
	// Lost is the link-lost sub-ledger of Shed; DegradedReqs counts
	// completions served at the degraded precision and Adaptations the
	// controller's arm switches. FaultEpisodes/Recovered and the
	// recovery times quantify managed recovery: an episode is recovered
	// when the queue first drains back to its pre-fault depth after the
	// last overlapping fault clears.
	Lost           int64   `json:"lost,omitempty"`
	DegradedReqs   int64   `json:"degraded_reqs,omitempty"`
	Adaptations    int64   `json:"adaptations,omitempty"`
	FaultEpisodes  int64   `json:"fault_episodes,omitempty"`
	Recovered      int64   `json:"recovered,omitempty"`
	MeanRecoveryMS float64 `json:"mean_recovery_ms,omitempty"`
	MaxRecoveryMS  float64 `json:"max_recovery_ms,omitempty"`

	// Integrity accounting (all zero unless the integrity layer is
	// configured or an SDC episode fired; see integrity.go).
	//
	// SDCInjected counts corruptions the fault process imposed;
	// CorruptDetected the ones the modelled compute-tier detectors
	// caught (never served), CorruptServed the undetected ones served
	// as if clean, and CorruptSLOMet the served corruptions that also
	// met their SLO — the fake-goodput term subtracted to get
	// goodput-under-SDC. Retries counts re-executions of detected
	// corruptions, RetriesGivenUp detections dropped flagged when
	// attempts or budget ran out; Hedges counts duplicated requests and
	// HedgeWins the ones whose served result came from the hedge device.
	SDCInjected     int64 `json:"sdc_injected,omitempty"`
	CorruptDetected int64 `json:"corrupt_detected,omitempty"`
	CorruptServed   int64 `json:"corrupt_served,omitempty"`
	CorruptSLOMet   int64 `json:"corrupt_slo_met,omitempty"`
	Retries         int64 `json:"retries,omitempty"`
	RetriesGivenUp  int64 `json:"retries_given_up,omitempty"`
	Hedges          int64 `json:"hedges,omitempty"`
	HedgeWins       int64 `json:"hedge_wins,omitempty"`

	// Temporal-ladder accounting (all zero unless Temporal.Enabled;
	// see temporal.go).
	//
	// BridgedReqs counts would-be-shed arrivals answered from tracker
	// predictions, ROIReqs/EarlyExitReqs completions served at the
	// reduced dispatch rungs, ForcedRefreshes full-frame passes the
	// staleness clock forced, and RungSwitches the windowed rung
	// controller's adaptations. The staleness quantiles are over
	// bridged responses' age — time since the serving tenant's last
	// real inference.
	BridgedReqs     int64   `json:"bridged_reqs,omitempty"`
	ROIReqs         int64   `json:"roi_reqs,omitempty"`
	EarlyExitReqs   int64   `json:"early_exit_reqs,omitempty"`
	ForcedRefreshes int64   `json:"forced_refreshes,omitempty"`
	RungSwitches    int64   `json:"rung_switches,omitempty"`
	StaleP50MS      float64 `json:"stale_p50_ms,omitempty"`
	StaleMeanMS     float64 `json:"stale_mean_ms,omitempty"`
	StaleMaxMS      float64 `json:"stale_max_ms,omitempty"`
}

// Result summarises the run so far (call after AdvanceTo + Drain).
func (s *Server) Result() Result {
	res := s.res
	for c := Class(0); c < NumClasses; c++ {
		t := &s.tallies[c]
		res.Classes[c] = ClassStats{
			Class:     c.String(),
			Offered:   t.offered,
			Admitted:  t.admitted,
			Shed:      t.shed,
			Lost:      t.lost,
			Expired:   t.expired,
			Completed: t.completed,
			SLOMet:    t.sloMet,
			P50MS:     t.lat.QuantileMS(0.50),
			P99MS:     t.lat.QuantileMS(0.99),
			MeanMS:    t.lat.MeanMS(),
			MaxMS:     t.lat.MaxMS(),
		}
		res.Offered += t.offered
		res.Admitted += t.admitted
		res.Shed += t.shed
		res.Lost += t.lost
		res.Expired += t.expired
		res.Completed += t.completed
		res.SLOMet += t.sloMet
	}
	if s.ctl != nil {
		res.Adaptations = int64(s.ctl.Switches())
	}
	if s.tpol != nil {
		res.ForcedRefreshes = s.tpol.ForcedRefreshes()
		res.RungSwitches = int64(s.tpol.Switches())
		res.StaleP50MS = s.staleHist.QuantileMS(0.50)
		res.StaleMeanMS = s.staleHist.MeanMS()
		res.StaleMaxMS = s.staleHist.MaxMS()
	}
	if res.Recovered > 0 {
		res.MeanRecoveryMS = s.recoverySumMS / float64(res.Recovered)
	}
	if res.Batches > 0 {
		res.MeanBatch = float64(s.batchedReqs) / float64(res.Batches)
	}
	span := s.cfg.HorizonMS
	if s.lastFinishMS > span {
		span = s.lastFinishMS
	}
	if span > 0 {
		res.Utilization = s.busyMS / span
		res.GoodputPerSec = float64(res.SLOMet) / span * 1e3
		res.OfferedPerSec = float64(res.Offered) / span * 1e3
	}
	if res.Offered > 0 {
		res.ShedRate = float64(res.Shed) / float64(res.Offered)
	}
	return res
}

// CheckInvariants verifies the conservation laws every load point must
// satisfy: offered splits exactly into admitted and shed, and admitted
// work splits exactly into completed and expired once drained.
func (r Result) CheckInvariants() error {
	if r.Offered != r.Admitted+r.Shed {
		return fmt.Errorf("serve: offered %d != admitted %d + shed %d", r.Offered, r.Admitted, r.Shed)
	}
	if r.Admitted != r.Completed+r.Expired {
		return fmt.Errorf("serve: admitted %d != completed %d + expired %d", r.Admitted, r.Completed, r.Expired)
	}
	if r.Lost > r.Shed {
		return fmt.Errorf("serve: lost %d exceeds shed %d", r.Lost, r.Shed)
	}
	if r.Recovered > r.FaultEpisodes {
		return fmt.Errorf("serve: recovered %d exceeds fault episodes %d", r.Recovered, r.FaultEpisodes)
	}
	// An episode recovers no earlier than its last fault clears.
	if r.MeanRecoveryMS < 0 || r.MaxRecoveryMS < r.MeanRecoveryMS {
		return fmt.Errorf("serve: recovery mean %v ms, max %v ms: want 0 <= mean <= max",
			r.MeanRecoveryMS, r.MaxRecoveryMS)
	}
	// Integrity ledgers: every injected corruption is detected, served
	// undetected, or discarded because a hedge result was served instead
	// — so detected+served never exceeds injected. Every retry and every
	// flagged give-up traces back to a distinct detection.
	if r.CorruptDetected+r.CorruptServed > r.SDCInjected {
		return fmt.Errorf("serve: corrupt detected %d + served %d exceeds injected %d",
			r.CorruptDetected, r.CorruptServed, r.SDCInjected)
	}
	if r.Retries+r.RetriesGivenUp > r.CorruptDetected {
		return fmt.Errorf("serve: retries %d + given up %d exceed detections %d",
			r.Retries, r.RetriesGivenUp, r.CorruptDetected)
	}
	if r.HedgeWins > r.Hedges {
		return fmt.Errorf("serve: hedge wins %d exceed hedges %d", r.HedgeWins, r.Hedges)
	}
	// Temporal ledgers: bridged, ROI, and early-exit responses are
	// disjoint kinds of completion, so their sum is bounded by the
	// completion count; a bridged run is only legal between real
	// completions, so bridges cannot exist without at least one.
	if r.BridgedReqs+r.ROIReqs+r.EarlyExitReqs > r.Completed {
		return fmt.Errorf("serve: bridged %d + roi %d + early-exit %d exceed completed %d",
			r.BridgedReqs, r.ROIReqs, r.EarlyExitReqs, r.Completed)
	}
	if r.BridgedReqs > 0 && r.Completed == r.BridgedReqs {
		return fmt.Errorf("serve: %d bridged responses with no real completion to anchor them", r.BridgedReqs)
	}
	for _, c := range r.Classes {
		if c.Offered != c.Admitted+c.Shed {
			return fmt.Errorf("serve: class %s offered %d != admitted %d + shed %d", c.Class, c.Offered, c.Admitted, c.Shed)
		}
		if c.Admitted != c.Completed+c.Expired {
			return fmt.Errorf("serve: class %s admitted %d != completed %d + expired %d", c.Class, c.Admitted, c.Completed, c.Expired)
		}
		if c.Lost > c.Shed {
			return fmt.Errorf("serve: class %s lost %d exceeds shed %d", c.Class, c.Lost, c.Shed)
		}
	}
	return nil
}

// LatencyQuantileMS returns the q-quantile of completed-request
// latency across all SLO classes (the cross-class merge the curve and
// chaos studies report).
func (s *Server) LatencyQuantileMS(q float64) float64 {
	var lat Hist
	for c := range s.tallies {
		lat.Merge(&s.tallies[c].lat)
	}
	return lat.QuantileMS(q)
}

// Fingerprint hashes every counter and latency bin into one word
// (FNV-1a): equal fingerprints across runs mean the traces and shed
// decisions were reproduced bit for bit.
func (s *Server) Fingerprint() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	for c := range s.tallies {
		t := &s.tallies[c]
		mix(uint64(t.offered))
		mix(uint64(t.admitted))
		mix(uint64(t.shed))
		mix(uint64(t.expired))
		mix(uint64(t.completed))
		mix(uint64(t.sloMet))
		mix(math.Float64bits(t.lat.sum))
		for _, n := range t.lat.counts {
			mix(uint64(n))
		}
	}
	for _, n := range s.res.TenantCompleted {
		mix(uint64(n))
	}
	// The integrity counters join the hash only when the layer is live:
	// mixing their zeros unconditionally would change every historic
	// fingerprint, breaking the zero-knob replay contract.
	r := &s.res
	if s.integrityLive() {
		mix(uint64(r.SDCInjected))
		mix(uint64(r.CorruptDetected))
		mix(uint64(r.CorruptServed))
		mix(uint64(r.CorruptSLOMet))
		mix(uint64(r.Retries))
		mix(uint64(r.RetriesGivenUp))
		mix(uint64(r.Hedges))
		mix(uint64(r.HedgeWins))
	}
	// Same contract for the temporal ladder: its counters and the
	// staleness histogram join the hash only when the ladder is live.
	if s.temporalLive() {
		mix(uint64(r.BridgedReqs))
		mix(uint64(r.ROIReqs))
		mix(uint64(r.EarlyExitReqs))
		mix(uint64(s.tpol.ForcedRefreshes()))
		mix(uint64(s.tpol.Switches()))
		mix(math.Float64bits(s.staleHist.sum))
		for _, n := range s.staleHist.counts {
			mix(uint64(n))
		}
	}
	return h
}

// Capacity returns the request rate (req/s) the configured device
// sustains over the model weights when every dispatch is a full
// micro-batch — the denominator offered-load sweeps express ρ against.
func Capacity(cfg Config) float64 {
	n := cfg.Batch.MaxBatch
	if n < 1 {
		n = 1
	}
	var tot, msPerReq float64
	for _, w := range modelWeights {
		tot += w
	}
	for m, w := range modelWeights {
		svc := device.PredictBatchMSEng(models.ID(m), cfg.Device, n, cfg.Precision, cfg.Engine)
		msPerReq += w / tot * svc / float64(n)
	}
	return 1e3 / msPerReq
}
