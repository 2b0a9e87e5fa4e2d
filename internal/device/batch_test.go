package device

import (
	"math"
	"testing"

	"ocularone/internal/models"
)

// TestPredictBatchMSReducesToPredictMS pins the batch-1 degenerate case.
func TestPredictBatchMSReducesToPredictMS(t *testing.T) {
	for _, d := range AllIDs {
		if got, want := PredictBatchMS(models.V8XLarge, d, 1, FP32), PredictMS(models.V8XLarge, d, FP32, Interpreted); got != want {
			t.Fatalf("%s: PredictBatchMS(1) = %v, PredictMS = %v", d, got, want)
		}
	}
}

// TestBatchAmortisation asserts the roofline properties batching must
// have: per-frame effective latency strictly improves with batch size,
// and total batch service still grows (a batch is not free).
func TestBatchAmortisation(t *testing.T) {
	for _, d := range AllIDs {
		prevPerFrame := math.Inf(1)
		prevTotal := 0.0
		for _, n := range []int{1, 2, 4, 8, 16} {
			total := PredictBatchMS(models.V8XLarge, d, n, FP32)
			perFrame := total / float64(n)
			if perFrame >= prevPerFrame {
				t.Fatalf("%s: per-frame latency %.3f at batch %d not below %.3f", d, perFrame, n, prevPerFrame)
			}
			if total <= prevTotal {
				t.Fatalf("%s: batch service %.3f at batch %d not above %.3f", d, total, n, prevTotal)
			}
			prevPerFrame, prevTotal = perFrame, total
		}
	}
}

// TestWorkstationBatch8Speedup pins the acceptance-level claim: batch-8
// serving of the x-large detector on the shared workstation at least
// doubles frames/sec over per-frame serving.
func TestWorkstationBatch8Speedup(t *testing.T) {
	base := BatchFPS(models.V8XLarge, RTX4090, 1, FP32, Interpreted)
	batched := BatchFPS(models.V8XLarge, RTX4090, 8, FP32, Interpreted)
	if batched < 2*base {
		t.Fatalf("batch-8 fps %.1f < 2x per-frame fps %.1f", batched, base)
	}
}

// TestRunBatchSingleMatchesRun asserts a batch of one is bit-identical
// to the per-job path — the property that lets micro-batching with
// MaxBatch=1 replay legacy simulations exactly.
func TestRunBatchSingleMatchesRun(t *testing.T) {
	a := NewExecutor(RTX4090, 7)
	b := NewExecutor(RTX4090, 7)
	jobs := PeriodicJobs(models.V8Medium, 50, 20)
	for i, j := range jobs {
		ca := a.Run([]Job{j})[0]
		cb := b.RunBatch([]Job{j})[0]
		if ca != cb {
			t.Fatalf("job %d: Run %+v != RunBatch %+v", i, ca, cb)
		}
	}
}

// TestRunBatchSemantics checks batched completion shape: common start
// and finish, equal service shares, start no earlier than the latest
// member arrival.
func TestRunBatchSemantics(t *testing.T) {
	e := NewExecutor(RTX4090, 3)
	jobs := []Job{
		{Model: models.V8XLarge, ArrivalMS: 0},
		{Model: models.V8XLarge, ArrivalMS: 5},
		{Model: models.V8XLarge, ArrivalMS: 12},
	}
	cs := e.RunBatch(jobs)
	if len(cs) != 3 {
		t.Fatalf("got %d completions", len(cs))
	}
	for _, c := range cs {
		if c.StartMS != 12 {
			t.Fatalf("batch start %.1f, want 12 (latest arrival)", c.StartMS)
		}
		if c.FinishMS != cs[0].FinishMS {
			t.Fatal("batch members finish at different times")
		}
		if c.ServiceMS != cs[0].ServiceMS {
			t.Fatal("batch members carry unequal service shares")
		}
	}
	svc := cs[0].FinishMS - cs[0].StartMS
	if math.Abs(3*cs[0].ServiceMS-svc) > 1e-9 {
		t.Fatalf("service shares sum to %.3f, batch service %.3f", 3*cs[0].ServiceMS, svc)
	}
	if e.BusyUntilMS() != cs[0].FinishMS {
		t.Fatal("executor busy horizon not advanced to batch finish")
	}
}

// TestMicroBatcher covers coalescing, the MaxBatch trigger and
// model-compatibility flushing (the window is the driving scheduler's).
func TestMicroBatcher(t *testing.T) {
	e := NewExecutor(RTX4090, 11)
	mb := NewMicroBatcher(e, BatchConfig{MaxBatch: 3, WindowMS: 40})
	if got := mb.Offer(Job{Model: models.V8Nano, ArrivalMS: 0}); got != nil {
		t.Fatalf("first offer flushed early: %v", got)
	}
	if mb.Pending() != 1 {
		t.Fatalf("pending %d after one offer, want 1", mb.Pending())
	}
	// Incompatible model flushes the open batch.
	got := mb.Offer(Job{Model: models.V8Medium, ArrivalMS: 10})
	if len(got) != 1 || got[0].Job.Model != models.V8Nano {
		t.Fatalf("model switch flush returned %v", got)
	}
	// Filling to MaxBatch dispatches immediately.
	mb.Offer(Job{Model: models.V8Medium, ArrivalMS: 11})
	got = mb.Offer(Job{Model: models.V8Medium, ArrivalMS: 12})
	if len(got) != 3 {
		t.Fatalf("full batch returned %d completions, want 3", len(got))
	}
	if mb.Pending() != 0 {
		t.Fatalf("pending %d after full flush", mb.Pending())
	}
	// Disabled config bypasses coalescing entirely.
	off := NewMicroBatcher(e, BatchConfig{MaxBatch: 1})
	if got := off.Offer(Job{Model: models.V8Nano, ArrivalMS: 100}); len(got) != 1 {
		t.Fatalf("disabled batcher queued instead of running: %v", got)
	}
}
