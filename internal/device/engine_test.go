package device

import (
	"testing"

	"ocularone/internal/models"
)

// TestPredictMSEngInterpretedBaseline pins the zero-value contract:
// the Interpreted engine reproduces the historic latency model exactly,
// and batch-1 latency is the batch formula at n = 1.
func TestPredictMSEngInterpretedBaseline(t *testing.T) {
	for _, m := range models.AllIDs {
		for _, d := range AllIDs {
			if got, want := PredictMS(m, d, FP32, Interpreted), PredictBatchMS(m, d, 1, FP32); got != want {
				t.Fatalf("%s/%s: PredictMS(Interpreted) %v != PredictBatchMS(1) %v", m, d, got, want)
			}
			if got, want := PredictBatchMSEng(m, d, 4, INT8, Interpreted), PredictBatchMS(m, d, 4, INT8); got != want {
				t.Fatalf("%s/%s: PredictBatchMSEng(Interpreted) %v != PredictBatchMS %v", m, d, got, want)
			}
		}
	}
}

// TestPlannedEngineFaster asserts the compiled plan beats eager
// execution for every model on every device (launch collapse + fused
// epilogues), and that each Jetson-class profile clears a measurable
// serving bar on the medium detector.
func TestPlannedEngineFaster(t *testing.T) {
	for _, d := range AllIDs {
		for _, m := range models.AllIDs {
			in := PredictMS(m, d, FP32, Interpreted)
			pl := PredictMS(m, d, FP32, Planned)
			if pl >= in {
				t.Fatalf("%s/%s: planned %v not faster than interpreted %v", m, d, pl, in)
			}
		}
	}
	// Acceptance bar: a measurable fps win on Jetson-class profiles.
	for _, d := range EdgeIDs {
		gain := FPS(models.V8Medium, d, FP32, Planned) / FPS(models.V8Medium, d, FP32, Interpreted)
		if gain < 1.2 {
			t.Fatalf("%s plan fps gain %.3fx below the 1.2x bar", d, gain)
		}
	}
}

// TestJobCompileSurcharge asserts the one-time compile cost extends
// exactly the job that carries it, deterministically.
func TestJobCompileSurcharge(t *testing.T) {
	base := NewExecutor(OrinNano, 7)
	plain := base.Run([]Job{{Model: models.V8Medium, ArrivalMS: 0, Engine: Planned}})[0]

	ex := NewExecutor(OrinNano, 7)
	compile := PlanCompileMS(models.V8Medium, OrinNano, FP32)
	charged := ex.Run([]Job{{Model: models.V8Medium, ArrivalMS: 0, Engine: Planned, CompileMS: compile}})[0]
	if diff := charged.ServiceMS - plain.ServiceMS; diff < compile*(1-1e-12) || diff > compile*(1+1e-12) {
		t.Fatalf("compile surcharge %v, want %v", diff, compile)
	}
}

// TestRunBatchRejectsMixedEngines pins the coalescing contract: one
// batched inference is one compiled program.
func TestRunBatchRejectsMixedEngines(t *testing.T) {
	ex := NewExecutor(RTX4090, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("RunBatch accepted mixed engines")
		}
	}()
	ex.RunBatch([]Job{
		{Model: models.V8Nano, Engine: Interpreted},
		{Model: models.V8Nano, Engine: Planned},
	})
}

// TestMicroBatcherSplitsEngines asserts the batcher flushes a pending
// batch when a different-engine job arrives instead of mixing them.
func TestMicroBatcherSplitsEngines(t *testing.T) {
	ex := NewExecutor(RTX4090, 3)
	mb := NewMicroBatcher(ex, BatchConfig{MaxBatch: 4, WindowMS: 100})
	if out := mb.Offer(Job{Model: models.V8Nano, ArrivalMS: 0, Engine: Planned}); len(out) != 0 {
		t.Fatalf("first offer flushed %d completions", len(out))
	}
	out := mb.Offer(Job{Model: models.V8Nano, ArrivalMS: 1, Engine: Interpreted})
	if len(out) != 1 {
		t.Fatalf("engine switch flushed %d completions, want 1", len(out))
	}
	if mb.Pending() != 1 {
		t.Fatalf("pending %d after engine switch, want 1", mb.Pending())
	}
}

// TestParseEngine covers the flag surface.
func TestParseEngine(t *testing.T) {
	if e, err := ParseEngine("plan"); err != nil || e != Planned {
		t.Fatalf("ParseEngine(plan) = %v, %v", e, err)
	}
	if e, err := ParseEngine(""); err != nil || e != Interpreted {
		t.Fatalf("ParseEngine(\"\") = %v, %v", e, err)
	}
	if _, err := ParseEngine("tensorrt"); err == nil {
		t.Fatal("ParseEngine accepted an unknown engine")
	}
}
