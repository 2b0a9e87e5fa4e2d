package device

import (
	"fmt"
	"sort"

	"ocularone/internal/models"
	"ocularone/internal/rng"
)

// Job is one inference request in the discrete-event simulation. The
// zero-value Precision is FP32 and the zero-value Engine is
// Interpreted, so jobs that never mention either replay the historic
// schedule bit-for-bit. CompileMS is a one-time plan-compilation
// surcharge the scheduler attaches to the first planned job of a
// (stage, placement) — it extends that job's service deterministically
// (no extra jitter draw) and is shared by the whole batch it rides in.
// The executor serves FIFO; deadlines and priorities belong to the
// schedulers that choose what to submit.
type Job struct {
	Model     models.ID
	ArrivalMS float64
	Precision Precision
	Engine    Engine
	CompileMS float64
	// CostScale, when positive, multiplies the drawn service time —
	// how temporal degradation rungs (ROI crops, early exits) charge
	// less than a full-frame pass. It scales the jittered draw rather
	// than changing it, so the rng stream is untouched and the zero
	// value (nominal cost) replays historic schedules bit for bit.
	CostScale float64
}

// costScale returns the effective service-time multiplier.
func (j Job) costScale() float64 {
	if j.CostScale > 0 {
		return j.CostScale
	}
	return 1
}

// Completion describes a finished job.
type Completion struct {
	Job       Job
	StartMS   float64
	FinishMS  float64
	ServiceMS float64
}

// LatencyMS returns arrival-to-finish latency.
func (c Completion) LatencyMS() float64 { return c.FinishMS - c.Job.ArrivalMS }

// Executor simulates one device serving inference jobs FIFO on a single
// GPU stream — the deployment mode of the paper's benchmarks. Service
// times come from the calibrated latency model with per-frame jitter,
// plus a thermal-throttling model: passively cooled Jetsons shed clock
// speed under sustained load (the 15 W Xavier NX and Orin Nano budgets
// of Table 3), inflating service times by up to ThrottleMax once the
// recent duty cycle saturates.
type Executor struct {
	Device ID
	rng    *rng.RNG
	busyMS float64

	// Thermal state: exponential moving average of the duty cycle.
	duty       float64
	lastArrive float64

	// stress is the externally imposed service-time inflation (ambient
	// heat waves, datacenter cooling faults) fault-injection layers set
	// through SetThermalStress. Zero — the default — replays every
	// pre-chaos schedule bit for bit.
	stress float64
	// slow is the straggler inflation (a degrading device running
	// persistently below spec: dying fan, ECC retirement storms,
	// background compaction) set through SetSlowdown. It composes
	// multiplicatively with stress — a straggling device can also sit
	// in a heat wave — and zero replays pre-chaos schedules bit for
	// bit, exactly as stress does.
	slow float64
}

// throttle constants: edge devices lose up to this fraction of speed at
// 100% duty; the actively cooled workstation does not throttle.
const (
	throttleMaxEdge = 0.18
	dutyTau         = 2000.0 // ms; thermal time constant of the EMA
)

// NewExecutor creates a simulator for the device with a deterministic
// jitter stream.
func NewExecutor(dev ID, seed uint64) *Executor {
	return &Executor{Device: dev, rng: rng.New(seed)}
}

// throttleFactor returns the service-time inflation for the current
// thermal state: the duty-cycle throttle of passively cooled edge
// devices, compounded with any externally imposed ambient stress (see
// SetThermalStress). Ambient stress applies to every device class —
// a cooling fault slows the actively cooled workstation too.
func (e *Executor) throttleFactor() float64 {
	f := 1.0
	if Registry(e.Device).IsEdge() {
		f += throttleMaxEdge * e.duty
	}
	return f * (1 + e.stress) * (1 + e.slow)
}

// SetSlowdown imposes (or, at 0, lifts) a straggler inflation s >= 0:
// service times scale by (1+s) while it is set, on top of thermal
// effects. Fault-injection layers drive it from the chaos straggler
// process.
func (e *Executor) SetSlowdown(s float64) {
	if s < 0 {
		s = 0
	}
	e.slow = s
}

// Slowdown reports the imposed straggler inflation.
func (e *Executor) Slowdown() float64 { return e.slow }

// SetThermalStress imposes an external service-time inflation s >= 0 on
// top of the duty-cycle throttle: service times scale by (1+s) while it
// is set. Fault-injection layers drive it from the internal/thermal
// ambient model (thermal storms); 0 restores nominal behaviour.
func (e *Executor) SetThermalStress(s float64) {
	if s < 0 {
		s = 0
	}
	e.stress = s
}

// ThermalStress reports the externally imposed inflation.
func (e *Executor) ThermalStress() float64 { return e.stress }

// HoldUntil blocks the executor's stream until tMS: jobs accepted later
// start no earlier than tMS. It models fail-stop outages and device
// restarts — the hold is idle time, so it cools the thermal duty EMA
// like any other gap. A hold in the past is a no-op.
func (e *Executor) HoldUntil(tMS float64) {
	if tMS > e.busyMS {
		e.busyMS = tMS
	}
}

// updateDuty folds one service interval into the duty-cycle EMA.
func (e *Executor) updateDuty(idleMS, busyMS float64) {
	span := idleMS + busyMS
	if span <= 0 {
		return
	}
	inst := busyMS / span
	alpha := span / (span + dutyTau)
	e.duty += alpha * (inst - e.duty)
	if e.duty < 0 {
		e.duty = 0
	} else if e.duty > 1 {
		e.duty = 1
	}
}

// expApprox is exp(x) for the small |x| the jitter draws produce.
func expApprox(x float64) float64 {
	// 4-term Taylor is accurate to ~1e-6 for |x| < 0.3.
	return 1 + x + x*x/2 + x*x*x/6
}

// serviceBatchMS draws one jittered, thermally adjusted service time
// for a batch of n frames of model m at the given precision around the
// batched roofline prediction. A batch consumes exactly one jitter
// tuple regardless of n (and of precision), keeping replays
// deterministic across precision sweeps.
func (e *Executor) serviceBatchMS(m models.ID, prec Precision, eng Engine, n int) float64 {
	base := PredictBatchMSEng(m, e.Device, n, prec, eng) * e.throttleFactor()
	v := base * expApprox(e.rng.NormRange(0, 0.06))
	if e.rng.Bool(0.03) {
		v *= e.rng.Range(1.3, 1.9)
	}
	return v
}

// BusyUntilMS reports when the executor's stream frees up given the work
// accepted so far — the back-pressure signal schedulers use to skip
// stale work.
func (e *Executor) BusyUntilMS() float64 { return e.busyMS }

// AdmissionDelayMS reports how long a job arriving at tMS would wait
// behind the accepted work before starting service — the queue-aware
// admission signal serving layers combine with a deadline to shed
// doomed requests at arrival instead of after they rot in the queue.
func (e *Executor) AdmissionDelayMS(tMS float64) float64 {
	if e.busyMS <= tMS {
		return 0
	}
	return e.busyMS - tMS
}

// Run serves jobs FIFO in arrival order, each as a batch of one: a job
// starts when the stream frees and it has arrived, and runs for one
// jittered service time plus any compile surcharge.
func (e *Executor) Run(jobs []Job) []Completion {
	sorted := append([]Job(nil), jobs...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].ArrivalMS < sorted[b].ArrivalMS })
	out := make([]Completion, 0, len(sorted))
	for i := range sorted {
		out = e.RunBatchInto(out, sorted[i:i+1])
	}
	return out
}

// RunBatch serves a batch of same-model, same-precision jobs as one
// coalesced inference: the batch starts when the stream is free and
// every member has arrived, runs for one batched service time, and all
// members complete together. Each completion's ServiceMS carries an
// equal 1/n share of the batch service so utilisation accounting still
// sums to true busy time. Run serves every job as a batch of one, so
// micro-batching with size 1 is bit-identical to unbatched execution.
func (e *Executor) RunBatch(jobs []Job) []Completion {
	if len(jobs) == 0 {
		return nil
	}
	return e.RunBatchInto(make([]Completion, 0, len(jobs)), jobs)
}

// RunBatchInto is RunBatch appending completions into dst — the
// allocation-free variant high-rate event loops (internal/serve) call
// with a recycled buffer. The jitter draw sequence is identical to
// RunBatch, so the two are interchangeable in deterministic replays.
func (e *Executor) RunBatchInto(dst []Completion, jobs []Job) []Completion {
	if len(jobs) == 0 {
		return dst
	}
	m, prec, eng := jobs[0].Model, jobs[0].Precision, jobs[0].Engine
	start := jobs[0].ArrivalMS
	compile := 0.0
	for _, j := range jobs {
		if j.Model != m {
			panic(fmt.Sprintf("device: RunBatch mixes models %s and %s", m, j.Model))
		}
		if j.Precision != prec {
			panic(fmt.Sprintf("device: RunBatch mixes precisions %s and %s", prec, j.Precision))
		}
		if j.Engine != eng {
			panic(fmt.Sprintf("device: RunBatch mixes engines %s and %s", eng, j.Engine))
		}
		if j.costScale() != jobs[0].costScale() {
			panic(fmt.Sprintf("device: RunBatch mixes cost scales %v and %v", jobs[0].costScale(), j.costScale()))
		}
		if j.ArrivalMS > start {
			start = j.ArrivalMS
		}
		if j.CompileMS > compile {
			compile = j.CompileMS
		}
	}
	if e.busyMS > start {
		start = e.busyMS
	}
	idle := start - e.busyMS
	if e.busyMS == 0 {
		idle = 0 // no history before the first job
	}
	svc := e.serviceBatchMS(m, prec, eng, len(jobs))*jobs[0].costScale() + compile
	share := svc / float64(len(jobs))
	for _, j := range jobs {
		dst = append(dst, Completion{Job: j, StartMS: start, ServiceMS: share, FinishMS: start + svc})
	}
	e.updateDuty(idle, svc)
	e.busyMS = start + svc
	return dst
}

// PeriodicJobs builds a constant-rate arrival stream: n frames of model m
// arriving every periodMS (e.g. 100 ms for a 10 FPS drone feed).
func PeriodicJobs(m models.ID, n int, periodMS float64) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{Model: m, ArrivalMS: float64(i) * periodMS}
	}
	return jobs
}

// String identifies the executor.
func (e *Executor) String() string { return fmt.Sprintf("executor(%s)", e.Device) }
