package nn_test

import (
	"testing"

	"ocularone/internal/models"
	"ocularone/internal/nn"
	"ocularone/internal/rng"
	"ocularone/internal/tensor"
)

// batchParityCase builds one built-in network at a reduced input size
// (the architectures are input-size agnostic; small inputs keep CI
// fast while exercising every module kind).
type batchParityCase struct {
	name  string
	build func() *nn.Network
	h, w  int
}

func parityCases() []batchParityCase {
	return []batchParityCase{
		// v8 nano covers Conv, C2f, Bottleneck, SPPF, Upsample, Concat,
		// and the v8 Detect head.
		{"yolov8n", func() *nn.Network { return models.BuildYOLOv8(models.Nano, 2, 11) }, 96, 96},
		// v11 nano adds C3k2, C2PSA, PSABlock, Attention, depthwise convs,
		// and the v11 Detect head.
		{"yolov11n", func() *nn.Network { return models.BuildYOLOv11(models.Nano, 2, 12) }, 96, 96},
		// trt_pose covers BasicBlock, MaxPool, and the decoder stack.
		{"trt_pose", func() *nn.Network { return models.BuildTRTPose(13) }, 64, 64},
		// monodepth2 covers the skip-connection Concat decoder.
		{"monodepth2", func() *nn.Network { return models.BuildMonodepth2(14) }, 64, 64},
	}
}

// TestForwardBatchParity asserts the ForwardBatch wrapper's output is
// bit-identical to per-sample Forward for every built-in model
// architecture — both route through the compiled plan, so this pins
// the batched instance (staged GEMM + scatter) against the direct
// batch-1 path.
func TestForwardBatchParity(t *testing.T) {
	for _, tc := range parityCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			net := tc.build()
			r := rng.New(99)
			const batch = 3
			xs := make([]*tensor.Tensor, batch)
			for b := range xs {
				x := tensor.New(3, tc.h, tc.w)
				for i := range x.Data {
					x.Data[i] = r.Float32()
				}
				xs[b] = x
			}
			got := net.ForwardBatch(xs)
			if len(got) != batch {
				t.Fatalf("ForwardBatch returned %d samples, want %d", len(got), batch)
			}
			for b, x := range xs {
				want := net.Forward(x)
				if len(got[b]) != len(want) {
					t.Fatalf("sample %d: %d outputs, want %d", b, len(got[b]), len(want))
				}
				for oi := range want {
					if !got[b][oi].SameShape(want[oi]) {
						t.Fatalf("sample %d output %d: shape %v, want %v", b, oi, got[b][oi].Shape, want[oi].Shape)
					}
					if !got[b][oi].Equal(want[oi], 0) {
						t.Fatalf("sample %d output %d: batched forward diverges from per-frame forward", b, oi)
					}
				}
			}
		})
	}
}

// TestPlanBatchParityInt8 pins the batched int8 plans of the three
// chained networks against their own batch-1 plan at tolerance 0, for
// batches of 2 to 5 frames. At 96×96 their deep convs have 9- and
// 36-pixel planes, which a batch runs as one folded GEMM
// (tensor.ConvPackedQBatchInto) whose slivers straddle the samples — and
// differently at every batch width.
func TestPlanBatchParityInt8(t *testing.T) {
	for _, id := range []models.ID{models.V8Nano, models.Bodypose, models.Monodepth2} {
		t.Run(id.String(), func(t *testing.T) {
			net := models.BuildQuantized(id, 2, 51, 3, 96, 96)
			p := net.PlanFor(3, 96, 96)
			xs := randFrames(52, 5, 3, 96, 96)
			opts := nn.ExecOpts{Precision: nn.INT8}
			want := make([][]*tensor.Tensor, len(xs))
			for b, x := range xs {
				want[b] = clonePlanOuts(p.Execute([]*tensor.Tensor{x}, opts))[0]
			}
			for batch := 2; batch <= len(xs); batch++ {
				got := p.Execute(xs[:batch], opts)
				for b := range got {
					for oi := range want[b] {
						if !got[b][oi].Equal(want[b][oi], 0) {
							t.Fatalf("batch %d sample %d output %d: batched int8 plan diverges from the per-frame plan", batch, b, oi)
						}
					}
				}
			}
		})
	}
}

// TestForwardBatchReusesScratch asserts the steady-state batched
// wrapper stays cheap: the plan executes allocation-free and the
// materialized outputs recycle through tensor.Scratch, so a second
// identical batch allocates only bookkeeping (the hard zero-alloc
// assertion on the plan itself lives in plan_test.go).
func TestForwardBatchReusesScratch(t *testing.T) {
	net := models.BuildYOLOv8(models.Nano, 2, 21)
	r := rng.New(5)
	xs := make([]*tensor.Tensor, 4)
	for b := range xs {
		x := tensor.New(3, 96, 96)
		for i := range x.Data {
			x.Data[i] = r.Float32()
		}
		xs[b] = x
	}
	run := func() {
		outs := net.ForwardBatch(xs)
		for _, os := range outs {
			tensor.Scratch.Put(os...)
		}
	}
	run() // warm the pool and bind the plan instance
	a1 := testing.AllocsPerRun(1, run)
	// The guard is against regressing to fresh per-conv buffers, which
	// costs hundreds of slice headers plus megabytes of float data.
	if a1 > 3000 {
		t.Fatalf("steady-state batched forward made %.0f allocations; pool not recycling", a1)
	}
}
