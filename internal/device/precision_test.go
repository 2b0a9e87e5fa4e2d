package device

import (
	"testing"

	"ocularone/internal/models"
)

// TestInt8RooflineFaster asserts INT8 beats FP32 for every model×device
// pair — both the compute term (Int8Gain > 1) and the weight-streaming
// term (1 byte vs 2) improve.
func TestInt8RooflineFaster(t *testing.T) {
	for _, m := range models.AllIDs {
		for _, d := range AllIDs {
			fp := PredictMS(m, d, FP32, Interpreted)
			q := PredictMS(m, d, INT8, Interpreted)
			if q >= fp {
				t.Fatalf("%s on %s: int8 %.2f ms not below fp32 %.2f ms", m, d, q, fp)
			}
		}
	}
}

// TestInt8JetsonsGainMost pins the paper-derived shape: every Jetson's
// int8 compute speedup exceeds the workstation's (their rated TOPS are
// predominantly int8 figures, the RTX 4090 reaches int8 via DP4A).
func TestInt8JetsonsGainMost(t *testing.T) {
	m := models.V8XLarge
	rtxGain := PredictMS(m, RTX4090, FP32, Interpreted) / PredictMS(m, RTX4090, INT8, Interpreted)
	for _, d := range EdgeIDs {
		gain := PredictMS(m, d, FP32, Interpreted) / PredictMS(m, d, INT8, Interpreted)
		if gain <= rtxGain {
			t.Fatalf("%s int8 gain %.2fx not above workstation %.2fx", d, gain, rtxGain)
		}
		if gain < 1.5 {
			t.Fatalf("%s int8 gain %.2fx below the Jetson-class 1.5x floor", d, gain)
		}
	}
}

// TestPrecisionZeroValueIsFP32 pins the compatibility contract: the
// zero-value Precision must be FP32 so every pre-quantization call site
// and zero-value Job replays identically.
func TestPrecisionZeroValueIsFP32(t *testing.T) {
	var p Precision
	if p != FP32 {
		t.Fatal("zero-value Precision is not FP32")
	}
	if p.String() != "fp32" {
		t.Fatalf("zero value prints %q", p.String())
	}
	if got, err := ParsePrecision("int8"); err != nil || got != INT8 {
		t.Fatalf("ParsePrecision(int8) = %v, %v", got, err)
	}
	if _, err := ParsePrecision("fp64"); err == nil {
		t.Fatal("ParsePrecision accepted fp64")
	}
}

// TestExecutorPrecisionJitterParity asserts the executor charges int8
// jobs the int8 roofline while drawing the same jitter stream: the
// service-time ratio of paired runs equals the deterministic roofline
// ratio exactly.
func TestExecutorPrecisionJitterParity(t *testing.T) {
	jobs := PeriodicJobs(models.V8XLarge, 20, 1000) // idle between frames: no throttle divergence
	fp := NewExecutor(OrinAGX, 42).Run(jobs)

	q8jobs := make([]Job, len(jobs))
	for i, j := range jobs {
		j.Precision = INT8
		q8jobs[i] = j
	}
	q8 := NewExecutor(OrinAGX, 42).Run(q8jobs)

	wantRatio := PredictMS(models.V8XLarge, OrinAGX, FP32, Interpreted) / PredictMS(models.V8XLarge, OrinAGX, INT8, Interpreted)
	for i := range fp {
		got := fp[i].ServiceMS / q8[i].ServiceMS
		// Identical jitter draws cancel in the ratio up to the thermal
		// state, which differs slightly because int8 frames shorten the
		// duty cycle.
		if got < wantRatio*0.8 || got > wantRatio*1.2 {
			t.Fatalf("frame %d: service ratio %.3f far from roofline ratio %.3f", i, got, wantRatio)
		}
	}
}

// TestRunBatchRejectsMixedPrecision pins the one-kernel-per-batch rule.
func TestRunBatchRejectsMixedPrecision(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RunBatch accepted a mixed-precision batch")
		}
	}()
	ex := NewExecutor(RTX4090, 1)
	ex.RunBatch([]Job{
		{Model: models.V8XLarge, ArrivalMS: 0, Precision: FP32},
		{Model: models.V8XLarge, ArrivalMS: 1, Precision: INT8},
	})
}

// TestMicroBatcherFlushesOnPrecisionChange asserts a precision switch
// closes the open batch exactly as a model switch does.
func TestMicroBatcherFlushesOnPrecisionChange(t *testing.T) {
	ex := NewExecutor(RTX4090, 1)
	mb := NewMicroBatcher(ex, BatchConfig{MaxBatch: 8, WindowMS: 100})
	if out := mb.Offer(Job{Model: models.V8XLarge, ArrivalMS: 0, Precision: INT8}); len(out) != 0 {
		t.Fatalf("first offer flushed %d completions", len(out))
	}
	out := mb.Offer(Job{Model: models.V8XLarge, ArrivalMS: 1, Precision: FP32})
	if len(out) != 1 {
		t.Fatalf("precision change flushed %d completions, want 1", len(out))
	}
	if out[0].Job.Precision != INT8 {
		t.Fatal("flushed completion lost its precision")
	}
	if got := mb.Flush(); len(got) != 1 || got[0].Job.Precision != FP32 {
		t.Fatalf("final flush = %v", got)
	}
}

// TestBatchInt8Compose asserts batching and int8 compose: batch-8 int8
// beats both batch-8 fp32 and batch-1 int8 on served throughput.
func TestBatchInt8Compose(t *testing.T) {
	m := models.V8XLarge
	b8fp := BatchFPS(m, RTX4090, 8, FP32, Interpreted)
	b1q8 := BatchFPS(m, RTX4090, 1, INT8, Interpreted)
	b8q8 := BatchFPS(m, RTX4090, 8, INT8, Interpreted)
	if b8q8 <= b8fp || b8q8 <= b1q8 {
		t.Fatalf("batch-8 int8 %.1f fps does not dominate batch-8 fp32 %.1f / batch-1 int8 %.1f", b8q8, b8fp, b1q8)
	}
}
