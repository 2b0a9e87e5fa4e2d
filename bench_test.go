// Package ocularone_test hosts the repository-root benchmark harness:
// one testing.B target per table and figure of the paper, each running
// the same protocol as cmd/ocularone-bench at a CI-friendly scale and
// printing the regenerated rows/series once per run.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Paper-scale numbers come from `cmd/ocularone-bench -full`; the
// benchmarks here assert the qualitative shapes (who wins, by what
// factor) that ARCHITECTURE.md (§Experiment protocol) records.
package ocularone_test

import (
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"ocularone/internal/adaptive"
	"ocularone/internal/bench"
	"ocularone/internal/dataset"
	"ocularone/internal/device"
	"ocularone/internal/models"
	"ocularone/internal/nn"
	"ocularone/internal/rng"
	"ocularone/internal/tensor"
)

// benchScale is the per-benchmark protocol scale: large enough for the
// paper's qualitative shapes to be stable, small enough for -bench runs.
var benchScale = bench.Scale{Data: 0.02, TimingFrames: 200, W: 320, H: 240, Seed: 42, TrainFrac: 0.126}

// printOnce writes each figure's output a single time regardless of the
// benchmark iteration count.
var printOnce sync.Map

func reportOnce(b *testing.B, key string, render func(w io.Writer)) {
	if _, loaded := printOnce.LoadOrStore(key, true); !loaded {
		render(os.Stdout)
	}
}

// BenchmarkTable1DatasetBuild regenerates Table 1: the dataset build and
// category tally.
func BenchmarkTable1DatasetBuild(b *testing.B) {
	var rows []bench.Table1Row
	for i := 0; i < b.N; i++ {
		rows = bench.Table1(benchScale)
	}
	reportOnce(b, "table1", func(w io.Writer) { bench.WriteTable1(w, rows) })
}

// BenchmarkTable2ModelSpecs regenerates Table 2: parameter counts, model
// sizes and GFLOPs from the nn engine (cached after the first build).
func BenchmarkTable2ModelSpecs(b *testing.B) {
	var rows []bench.Table2Row
	for i := 0; i < b.N; i++ {
		rows = bench.Table2()
	}
	reportOnce(b, "table2", func(w io.Writer) { bench.WriteTable2(w, rows) })
}

// BenchmarkTable3DeviceSpecs regenerates Table 3.
func BenchmarkTable3DeviceSpecs(b *testing.B) {
	var rows []bench.Table3Row
	for i := 0; i < b.N; i++ {
		rows = bench.Table3()
	}
	reportOnce(b, "table3", func(w io.Writer) { bench.WriteTable3(w, rows) })
}

// BenchmarkFig1CurationEffect regenerates Fig. 1: YOLOv11-m trained on an
// uncurated random sample vs the curated stratified pool.
func BenchmarkFig1CurationEffect(b *testing.B) {
	var res bench.Fig1Result
	for i := 0; i < b.N; i++ {
		res = bench.RunFig1(benchScale)
	}
	if res.CuratedAdversarial.Accuracy() <= res.RandomAdversarial.Accuracy() {
		b.Fatalf("curation effect inverted: curated %.1f%% vs random %.1f%%",
			res.CuratedAdversarial.Accuracy(), res.RandomAdversarial.Accuracy())
	}
	reportOnce(b, "fig1", func(w io.Writer) { bench.WriteFig1(w, res) })
}

// accuracyStudy caches the shared Fig. 3 + Fig. 4 training pass.
var (
	accOnce  sync.Once
	accStudy *bench.AccuracyStudy
)

func sharedAccuracyStudy() *bench.AccuracyStudy {
	accOnce.Do(func() { accStudy = bench.RunAccuracyStudy(benchScale) })
	return accStudy
}

// BenchmarkFig3DiverseAccuracy regenerates Fig. 3: all six retrained
// detectors on the diverse test set.
func BenchmarkFig3DiverseAccuracy(b *testing.B) {
	var st *bench.AccuracyStudy
	for i := 0; i < b.N; i++ {
		st = sharedAccuracyStudy()
	}
	for key, res := range st.Diverse {
		if res.Accuracy() < 95 {
			b.Fatalf("%s diverse accuracy %.1f%% breaks the ≥98.6%% paper shape", key, res.Accuracy())
		}
	}
	reportOnce(b, "fig3", func(w io.Writer) { st.WriteFig3(w) })
}

// BenchmarkFig4AdversarialAccuracy regenerates Fig. 4: the adversarial
// test set, where accuracy must increase with model size.
func BenchmarkFig4AdversarialAccuracy(b *testing.B) {
	var st *bench.AccuracyStudy
	for i := 0; i < b.N; i++ {
		st = sharedAccuracyStudy()
	}
	for _, f := range bench.Families {
		n := st.Advers[bench.ModelKey(f, models.Nano)].Accuracy()
		x := st.Advers[bench.ModelKey(f, models.XLarge)].Accuracy()
		if n > x+1e-9 {
			b.Fatalf("%v: nano (%.1f%%) beats x-large (%.1f%%) on adversarial", f, n, x)
		}
	}
	reportOnce(b, "fig4", func(w io.Writer) { st.WriteFig4(w) })
}

// BenchmarkFig5EdgeInference regenerates Fig. 5: per-frame inference
// times for all models on the three Jetson devices.
func BenchmarkFig5EdgeInference(b *testing.B) {
	var cells []bench.LatencyCell
	for i := 0; i < b.N; i++ {
		cells = bench.RunFig5(benchScale)
	}
	reportOnce(b, "fig5", func(w io.Writer) { bench.WriteFig5(w, cells) })
}

// BenchmarkFig6WorkstationInference regenerates Fig. 6: the RTX 4090.
func BenchmarkFig6WorkstationInference(b *testing.B) {
	var cells []bench.LatencyCell
	for i := 0; i < b.N; i++ {
		cells = bench.RunFig6(benchScale)
	}
	for _, c := range cells {
		if c.Summary.MedianMS > 25 {
			b.Fatalf("%s median %.1f ms exceeds the paper's 25 ms bound", c.Model, c.Summary.MedianMS)
		}
	}
	reportOnce(b, "fig6", func(w io.Writer) { bench.WriteFig6(w, cells) })
}

// BenchmarkAblations regenerates the design-choice ablations of
// ARCHITECTURE.md (§Ablations).
func BenchmarkAblations(b *testing.B) {
	var results []bench.AblationResult
	for i := 0; i < b.N; i++ {
		results = []bench.AblationResult{
			bench.RunAblationContrastNorm(benchScale),
			bench.RunAblationMemoryTerm(),
		}
	}
	reportOnce(b, "ablations", func(w io.Writer) { bench.WriteAblations(w, results) })
}

// BenchmarkExtAdaptiveDeployment runs the future-work adaptive
// edge-cloud study and asserts adaptive matches the best static arm.
func BenchmarkExtAdaptiveDeployment(b *testing.B) {
	var outcomes []adaptiveOutcome
	for i := 0; i < b.N; i++ {
		outcomes = toOutcomes(bench.RunAdaptiveStudy(benchScale.Seed))
	}
	best := 0.0
	for _, o := range outcomes[:len(outcomes)-1] {
		if o.Reward > best {
			best = o.Reward
		}
	}
	if outcomes[len(outcomes)-1].Reward < best-0.01 {
		b.Fatalf("adaptive reward %.3f below best static %.3f", outcomes[len(outcomes)-1].Reward, best)
	}
	reportOnce(b, "ext-adaptive", func(w io.Writer) {
		bench.WriteAdaptiveStudy(w, bench.RunAdaptiveStudy(benchScale.Seed))
	})
}

type adaptiveOutcome struct{ Reward float64 }

func toOutcomes(outs []adaptive.Outcome) []adaptiveOutcome {
	r := make([]adaptiveOutcome, len(outs))
	for i, o := range outs {
		r[i] = adaptiveOutcome{Reward: o.Reward}
	}
	return r
}

// BenchmarkExtBatchServing runs the micro-batched serving study and
// asserts the PR-2 acceptance shape: batch-8 at least doubles served
// frames/sec over the per-frame path on the saturated fleet workload.
func BenchmarkExtBatchServing(b *testing.B) {
	var rows []bench.BatchRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.RunBatchStudy(benchScale.Seed)
		if err != nil {
			b.Fatal(err)
		}
	}
	final := rows[len(rows)-1]
	if final.MaxBatch != 8 || final.Speedup < 2 {
		b.Fatalf("batch-8 speedup %.2fx below the 2x acceptance bar", final.Speedup)
	}
	reportOnce(b, "ext-batch", func(w io.Writer) { bench.WriteBatchStudy(w, rows) })
}

// BenchmarkExtPlanServing runs the compiled-plan serving study and
// asserts the PR-4 acceptance shape: planned serving improves served
// fps over the interpreted engine on every Jetson profile (measured
// ~1.2x, net of the one-time per-stage compile charge).
func BenchmarkExtPlanServing(b *testing.B) {
	var rows []bench.EdgeRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.RunPlanStudy(benchScale.Seed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Policy == "plan" && r.Speedup < 1.1 {
			b.Fatalf("%s planned serving speedup %.2fx below the 1.1x bar", r.Device, r.Speedup)
		}
	}
	reportOnce(b, "ext-plan", func(w io.Writer) { bench.WritePlanStudy(w, rows) })
}

// BenchmarkExtQuantServing runs the INT8 quantized-serving study and
// asserts the PR-3 acceptance shape: running the whole medium pipeline
// in int8 serves at least 1.5x the fp32 frames/sec on every Jetson
// (measured 2.1-2.3x; the Jetsons' rated TOPS are int8 figures).
func BenchmarkExtQuantServing(b *testing.B) {
	var rows []bench.EdgeRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = bench.RunQuantStudy(benchScale.Seed)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Policy == "int8-all" && r.Speedup < 1.5 {
			b.Fatalf("%s int8-all speedup %.2fx below the 1.5x acceptance bar", r.Device, r.Speedup)
		}
	}
	reportOnce(b, "ext-quant", func(w io.Writer) { bench.WriteQuantStudy(w, rows) })
}

// BenchmarkExtEfficiency regenerates the throughput-per-dollar/-watt
// table derived from Table 3's price and power columns.
func BenchmarkExtEfficiency(b *testing.B) {
	var rows []bench.EfficiencyRow
	for i := 0; i < b.N; i++ {
		rows = bench.RunEfficiency()
	}
	_ = rows
	reportOnce(b, "ext-efficiency", func(w io.Writer) { bench.WriteEfficiency(w, rows) })
}

// --- Engine micro-benchmarks: genuine Go compute costs. ---

// BenchmarkNNForwardYOLOv8NanoCPU measures a real forward pass of the
// scaled YOLOv8-n graph on CPU at a reduced input — the pure-Go
// inference cost underlying the engine (not the simulated GPU numbers).
func BenchmarkNNForwardYOLOv8NanoCPU(b *testing.B) {
	net := models.BuildYOLOv8(models.Nano, 1, 1)
	x := tensor.New(3, 96, 96)
	r := rng.New(2)
	for i := range x.Data {
		x.Data[i] = r.Float32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
}

// BenchmarkNNForwardBatchYOLOv8NanoCPU measures the batched forward
// path at batch 4 — compare ns/op divided by 4 against the per-frame
// benchmark above, and allocs/op against it for the pool's effect.
func BenchmarkNNForwardBatchYOLOv8NanoCPU(b *testing.B) {
	net := models.BuildYOLOv8(models.Nano, 1, 1)
	r := rng.New(2)
	const batch = 4
	xs := make([]*tensor.Tensor, batch)
	for bi := range xs {
		x := tensor.New(3, 96, 96)
		for i := range x.Data {
			x.Data[i] = r.Float32()
		}
		xs[bi] = x
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		outs := net.ForwardBatch(xs)
		for _, os := range outs {
			tensor.Scratch.Put(os...)
		}
	}
}

// BenchmarkNNPlanExecuteYOLOv8NanoCPU measures the compiled plan on
// the same network and input as BenchmarkNNForwardYOLOv8NanoCPU — the
// ns/op delta is the fused-epilogue + arena win, and allocs/op pins
// the zero-allocation steady state.
func BenchmarkNNPlanExecuteYOLOv8NanoCPU(b *testing.B) {
	net := models.Build(models.V8Nano, 1, 1)
	plan := net.PlanFor(3, 96, 96)
	x := tensor.New(3, 96, 96)
	r := rng.New(2)
	for i := range x.Data {
		x.Data[i] = r.Float32()
	}
	xs := []*tensor.Tensor{x}
	plan.Execute(xs, nn.ExecOpts{}) // bind the instance
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan.Execute(xs, nn.ExecOpts{})
	}
}

// BenchmarkNNForwardTRTPoseCPU measures the pose network forward pass.
func BenchmarkNNForwardTRTPoseCPU(b *testing.B) {
	net := models.BuildTRTPose(1)
	x := tensor.New(3, 96, 96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
}

// BenchmarkDetectorInference measures the trained vest detector on one
// frame (the medium tier).
func BenchmarkDetectorInference(b *testing.B) {
	ds := dataset.Build(dataset.Config{Scale: 0.005, Seed: 42, W: 320, H: 240})
	sp := ds.StratifiedSplit(0.3)
	det := sharedAccuracyStudy().Detectors["v8m"]
	r := sp.Test.Render(sp.Test.Items[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Detect(r.Image)
	}
}

// BenchmarkSceneRender measures the procedural renderer (one 320×240
// frame with a VIP and distractors).
func BenchmarkSceneRender(b *testing.B) {
	ds := dataset.Build(dataset.Config{Scale: 0.005, Seed: 42, W: 320, H: 240})
	it := ds.Items[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds.Render(it)
	}
}

// BenchmarkDeviceSimulation measures the discrete-event executor
// throughput (jobs/op scales with TimingFrames).
func BenchmarkDeviceSimulation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ex := device.NewExecutor(device.XavierNX, 1)
		ex.Run(device.PeriodicJobs(models.V8Medium, 100, 100))
	}
}

// BenchmarkMatMul512 measures the blocked parallel matmul kernel.
func BenchmarkMatMul512(b *testing.B) {
	a := tensor.New(512, 512)
	c := tensor.New(512, 512)
	r := rng.New(3)
	for i := range a.Data {
		a.Data[i] = r.Float32()
		c.Data[i] = r.Float32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(a, c)
	}
}

// BenchmarkMatMul512Into measures the packed GEMM kernel alone:
// MatMul's result allocation (4 allocs / ~1 MB per op) is hoisted out
// so the number is the kernel signal, and ReportAllocs pins the
// steady-state Into path at zero heap allocations per op.
func BenchmarkMatMul512Into(b *testing.B) {
	a := tensor.New(512, 512)
	c := tensor.New(512, 512)
	dst := tensor.New(512, 512)
	r := rng.New(3)
	for i := range a.Data {
		a.Data[i] = r.Float32()
		c.Data[i] = r.Float32()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(dst, a, c)
	}
}

// BenchmarkConv2D measures the im2col convolution kernel on a typical
// backbone layer shape.
func BenchmarkConv2D(b *testing.B) {
	spec := tensor.ConvSpec{InC: 64, OutC: 128, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	x := tensor.New(64, 40, 40)
	w := tensor.New(128, 64, 3, 3)
	r := rng.New(4)
	for i := range x.Data {
		x.Data[i] = r.Float32()
	}
	for i := range w.Data {
		w.Data[i] = r.Float32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2D(x, w, nil, spec)
	}
}

// BenchmarkConvTable2Shapes times the packed fp32 conv at the five 3×3
// stride-1 pad-1 shapes the Table-2 networks run at 96×96 (m = out
// channels, k = 9·in channels, n = oh·ow) — the per-shape table of
// BENCHMARKS.md §PR 12, §PR 14 and §PR 23. n = 9 and n = 36 take the
// narrow 8×12 tile where the tier has one, n ≥ 144 the 4×NR tile. Each
// shape runs twice. hot re-runs one conv, whose weights stay in L2 from
// the deepest shape down — what a kernel can do, and what hid a
// weight-stream stall for ten PRs. cold rotates through 128 MB of
// distinct packed copies of the weights, so every call streams them from
// memory as a network's frame does (≈ 120 MB of fp32 weights an op of the
// engine_fp32 chain); wGB/s is the packed weight bytes over the call.
// Record with GOMAXPROCS=1 -count 5; GFLOPS counts the 2·m·k·n useful
// flops.
func BenchmarkConvTable2Shapes(b *testing.B) {
	for _, s := range []struct{ m, k, n int }{
		{512, 4608, 9}, {256, 2304, 36}, {128, 1152, 144}, {64, 576, 576}, {32, 288, 2304},
	} {
		inC, side := s.k/9, int(math.Sqrt(float64(s.n)))
		spec := tensor.ConvSpec{InC: inC, OutC: s.m, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
		r := rng.New(14)
		x := tensor.New(inC, side, side)
		w := tensor.New(s.m, s.k)
		for i := range x.Data {
			x.Data[i] = r.Float32() - 0.5
		}
		for i := range w.Data {
			w.Data[i] = r.Float32() - 0.5
		}
		dst := tensor.New(s.m, s.n)
		wBytes := 4 * s.m * s.k
		for _, mode := range []struct {
			name   string
			copies int
		}{{"hot", 1}, {"cold", (128<<20 + wBytes - 1) / wBytes}} {
			b.Run(fmt.Sprintf("m%d_k%d_n%d/%s", s.m, s.k, s.n, mode.name), func(b *testing.B) {
				wps := make([]*tensor.PackedA, mode.copies)
				for i := range wps {
					wps[i] = tensor.PackWeights(w)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tensor.ConvPackedInto(dst, wps[i%len(wps)], x, spec, 0, side, side, tensor.Epilogue{}, 0)
				}
				sec := b.Elapsed().Seconds() / float64(b.N)
				b.ReportMetric(sec*1e3, "ms/op")
				b.ReportMetric(2*float64(s.m*s.k*s.n)/sec/1e9, "GFLOPS")
				b.ReportMetric(float64(wBytes)/sec/1e9, "wGB/s")
			})
		}
	}
}

// BenchmarkConvTable2ShapesInt8 is the int8 twin of
// BenchmarkConvTable2Shapes at batch 1 and batch 4 — the per-shape table
// of BENCHMARKS.md §PR 15. At batch 4 the n = 9 and n = 36 shapes run as
// one folded GEMM over the batch's 36 and 144 columns, the rest sample
// by sample. Record with GOMAXPROCS=1 -count 5. GOPS counts the 2·m·k·n
// useful ops a frame; wMB/frame is the packed weight traffic the route
// implies — int16 panels on the pair tiers, int8 on the quad tier, which
// KernelTierDesc names u8s8: one pass over the panels per column sliver,
// shared by the whole batch on the folded route.
func BenchmarkConvTable2ShapesInt8(b *testing.B) {
	for _, s := range []struct{ m, k, n int }{
		{512, 4608, 9}, {256, 2304, 36}, {128, 1152, 144}, {64, 576, 576}, {32, 288, 2304},
	} {
		for _, nb := range []int{1, 4} {
			b.Run(fmt.Sprintf("m%d_k%d_n%d/b%d", s.m, s.k, s.n, nb), func(b *testing.B) {
				inC, side := s.k/9, int(math.Sqrt(float64(s.n)))
				spec := tensor.ConvSpec{InC: inC, OutC: s.m, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
				r := rng.New(15)
				w := tensor.New(s.m, s.k)
				for i := range w.Data {
					w.Data[i] = r.Float32() - 0.5
				}
				qw := tensor.QuantizePerChannel(w)
				qp := tensor.PackWeightsQ(qw.Data, s.m, s.k, 9)
				rowScale := make([]float32, s.m)
				for i := range rowScale {
					rowScale[i] = qw.ScaleFor(i) / 127
				}
				xs, dsts := make([]*tensor.Tensor, nb), make([]*tensor.Tensor, nb)
				for i := range xs {
					xs[i], dsts[i] = tensor.New(inC, side, side), tensor.New(s.m, s.n)
					for j := range xs[i].Data {
						xs[i].Data[j] = r.Float32() - 0.5
					}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tensor.ConvPackedQBatchInto(dsts, qp, xs, spec, 0, side, side, 127, rowScale, tensor.Epilogue{}, 0, nil)
				}
				sec := b.Elapsed().Seconds() / float64(b.N*nb)
				cols, share := s.n, 1
				if nb > 1 && s.n <= 36 { // the folded route's shapes
					cols, share = nb*s.n, nb
				}
				nr, wBytes := tensor.KernelTierInt8Cols(), 2
				if strings.Contains(tensor.KernelTierDesc(), "u8s8") {
					wBytes = 1
				}
				b.ReportMetric(sec*1e3, "ms/frame")
				b.ReportMetric(2*float64(s.m*s.k*s.n)/sec/1e9, "GOPS")
				b.ReportMetric(float64((cols+nr-1)/nr*wBytes*s.m*s.k)/float64(share)/1e6, "wMB/frame")
			})
		}
	}
}

// BenchmarkConvReroutedShapes times the conv shapes that left the
// reference lowering when the plan and the interpreter were given one
// conv lowering (BENCHMARKS.md §PR 18): monodepth2's two one-channel
// disparity convs, two small 1×1 heads, and depthwise 3×3 convs down to
// the 6×6 and 3×3 planes where the packed driver's fixed cost per group
// (≈ 0.8 µs) makes it the slower of the two. Each shape runs the whole
// conv op — every group; fp32 on one sample and on a batch of four, int8
// on a batch of four — on the shipped path (prepacked weights, ConvPackedInto /
// ConvPackedQBatchInto) and on the retired one kept here as the oracle:
// materialised im2col + the reference GEMM, which is still what an
// ABFT-checked conv re-executes through. Record with GOMAXPROCS=1
// -benchtime 300x -count 5.
func BenchmarkConvReroutedShapes(b *testing.B) {
	dense := func(inC, outC, k int) tensor.ConvSpec {
		return tensor.ConvSpec{InC: inC, OutC: outC, KH: k, KW: k, StrideH: 1, StrideW: 1, PadH: k / 2, PadW: k / 2, Groups: 1}
	}
	dw := func(c int) tensor.ConvSpec {
		s := dense(c, c, 3)
		s.Groups = c
		return s
	}
	for _, s := range []struct {
		name string
		spec tensor.ConvSpec
		h, w int
	}{
		{"disparity_m1_k288_48x48", dense(32, 1, 3), 48, 48},
		{"disparity_m1_k144_96x96", dense(16, 1, 3), 96, 96},
		{"m16_k16_3x3", dense(16, 16, 1), 3, 3},
		{"m1_k16_n189", dense(16, 1, 1), 9, 21},
		{"depthwise_c64_24x24", dw(64), 24, 24},
		{"depthwise_c128_12x12", dw(128), 12, 12},
		{"depthwise_c256_6x6", dw(256), 6, 6},
		{"depthwise_c256_3x3", dw(256), 3, 3},
	} {
		spec, groups := s.spec, s.spec.Groups
		icg, ocg := spec.InC/groups, spec.OutC/groups
		k, plane := icg*spec.KH*spec.KW, s.h*s.w
		r := rng.New(18)
		w := tensor.New(spec.OutC, k)
		for i := range w.Data {
			w.Data[i] = r.Float32() - 0.5
		}
		qw := tensor.QuantizePerChannel(w)
		const nb = 4
		xs, outs := make([]*tensor.Tensor, nb), make([]*tensor.Tensor, nb)
		for i := range xs {
			xs[i], outs[i] = tensor.New(spec.InC, s.h, s.w), tensor.New(spec.OutC, plane)
			for j := range xs[i].Data {
				xs[i].Data[j] = r.Float32() - 0.5
			}
		}
		rowScale := make([]float32, spec.OutC)
		for i := range rowScale {
			rowScale[i] = qw.ScaleFor(i) / 127
		}
		// Per group: weight views and packed panels, and every sample's
		// destination rows, as convOp binds them.
		wg, wpk := make([]*tensor.Tensor, groups), make([]*tensor.PackedA, groups)
		qg, qpk := make([]*tensor.QTensor, groups), make([]*tensor.PackedQ, groups)
		dsts := make([][]*tensor.Tensor, groups)
		for g := range dsts {
			wg[g] = tensor.FromSlice(w.Data[g*ocg*k:(g+1)*ocg*k], ocg, k)
			wpk[g] = tensor.PackWeights(wg[g])
			qg[g] = tensor.QFromSlice(qw.Data[g*ocg*k:(g+1)*ocg*k], nil, ocg, k)
			qpk[g] = tensor.PackWeightsQ(qg[g].Data, ocg, k, spec.KH*spec.KW)
			dsts[g] = make([]*tensor.Tensor, nb)
			for i, out := range outs {
				dsts[g][i] = tensor.FromSlice(out.Data[g*ocg*plane:(g+1)*ocg*plane], ocg, plane)
			}
		}
		cols, colsB := tensor.New(k, plane), tensor.New(k, nb*plane)
		colsQ := tensor.QFromSlice(make([]int8, k*nb*plane), nil, k, nb*plane)
		big := tensor.New(ocg, nb*plane)
		// scatter distributes one group's [ocg, nb·plane] GEMM result into
		// the per-sample outputs, as the retired lowering's batches did.
		scatter := func(g int) {
			for ci := 0; ci < ocg; ci++ {
				for i := range xs {
					copy(dsts[g][i].Data[ci*plane:(ci+1)*plane], big.Data[(ci*nb+i)*plane:(ci*nb+i+1)*plane])
				}
			}
		}
		for _, c := range []struct {
			name string
			run  func()
		}{
			{"fp32_b1/packed", func() {
				for g := 0; g < groups; g++ {
					tensor.ConvPackedInto(dsts[g][0], wpk[g], xs[0], spec, g*icg, s.h, s.w, tensor.Epilogue{}, 0)
				}
			}},
			{"fp32_b1/reference", func() {
				for g := 0; g < groups; g++ {
					tensor.Im2ColInto(xs[0], cols, spec, g*icg, icg, s.h, s.w, 0, plane)
					tensor.MatMulRefEpilogueInto(dsts[g][0], wg[g], cols, tensor.Epilogue{}, 0)
				}
			}},
			// An unquantised conv inside a batch-4 int8 plan (YOLO11's
			// detect-head depthwise convs) is this pair: sample by sample
			// now, one im2col + GEMM per group for the whole batch before.
			{"fp32_b4/packed", func() {
				for g := 0; g < groups; g++ {
					for i, x := range xs {
						tensor.ConvPackedInto(dsts[g][i], wpk[g], x, spec, g*icg, s.h, s.w, tensor.Epilogue{}, 0)
					}
				}
			}},
			{"fp32_b4/reference", func() {
				for g := 0; g < groups; g++ {
					for i, x := range xs {
						tensor.Im2ColInto(x, colsB, spec, g*icg, icg, s.h, s.w, i*plane, nb*plane)
					}
					tensor.MatMulRefEpilogueInto(big, wg[g], colsB, tensor.Epilogue{}, 0)
					scatter(g)
				}
			}},
			{"int8_b4/packed", func() {
				for g := 0; g < groups; g++ {
					tensor.ConvPackedQBatchInto(dsts[g], qpk[g], xs, spec, g*icg, s.h, s.w, 127, rowScale[g*ocg:(g+1)*ocg], tensor.Epilogue{}, 0, nil)
				}
			}},
			{"int8_b4/reference", func() {
				for g := 0; g < groups; g++ {
					for i, x := range xs {
						tensor.Im2ColQInto(x, colsQ.Data, 127, spec, g*icg, icg, s.h, s.w, i*plane, nb*plane)
					}
					tensor.MatMulInt8RefEpilogueInto(big, qg[g], colsQ, rowScale[g*ocg:(g+1)*ocg], tensor.Epilogue{}, 0)
					scatter(g)
				}
			}},
		} {
			b.Run(s.name+"/"+c.name, func(b *testing.B) {
				c.run()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.run()
				}
				b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)*1e6, "µs/op")
			})
		}
	}
}

// BenchmarkPlanExecuteYOLOv8n is the whole-network row beside the
// per-shape tables above, for the model the paper leans on: one
// Plan.Execute of yolov8n at 96×96 as the engine workloads of the
// repository benchmark run it — fp32 at batch 1, int8 at batch 4 — in
// ms per Execute and useful GFLOPS (Network.Cost × batch). Its SiLU
// epilogues, SPPF pools and residual adds are what BENCHMARKS.md §PR 16
// moved. Record with GOMAXPROCS=1 -count 5.
func BenchmarkPlanExecuteYOLOv8n(b *testing.B) {
	net := models.BuildQuantized(models.V8Nano, 1, 1, 3, 96, 96)
	plan := net.PlanFor(3, 96, 96)
	flops, _ := net.Cost(nn.Shape{C: 3, H: 96, W: 96})
	r := rng.New(16)
	xs := make([]*tensor.Tensor, 4)
	for i := range xs {
		xs[i] = tensor.New(3, 96, 96)
		for j := range xs[i].Data {
			xs[i].Data[j] = r.Float32()
		}
	}
	for _, c := range []struct {
		name string
		xs   []*tensor.Tensor
		opts nn.ExecOpts
	}{
		{"fp32_b1", xs[:1], nn.ExecOpts{}},
		{"int8_b4", xs, nn.ExecOpts{Precision: nn.INT8}},
	} {
		b.Run(c.name, func(b *testing.B) {
			plan.Execute(c.xs, c.opts) // bind the instance
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan.Execute(c.xs, c.opts)
			}
			sec := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(sec*1e3, "ms/exec")
			b.ReportMetric(float64(flops)*float64(len(c.xs))/sec/1e9, "GFLOPS")
		})
	}
}

// BenchmarkNNForwardQuantYOLOv8NanoCPU measures the INT8 forward pass
// of the calibrated+quantized yolov8n — compare against
// BenchmarkNNForwardYOLOv8NanoCPU. Until PR 12 this was a host-side
// loss (plan execute 16.0–18.2 ms int8 vs 12.6–13.9 ms fp32, single
// core, avx512vnni): the sliver pack re-quantized every pixel per
// kernel tap. With activations quantized once per conv it is a small
// win on this network (9.8–9.9 ms vs 10.7–11.4 ms fp32) and a 1.65–1.8x
// one on bodypose and monodepth2 (BENCHMARKS.md §PR 12; PR 14's narrow
// fp32 tile has since brought fp32 yolov8n to 9.5–10.1 ms, a tie here,
// and the other two to 22 and 30 ms against int8's 17.5 and 25); it stays
// smaller than the kernel-level win because detect heads and
// elementwise ops stay fp32.
func BenchmarkNNForwardQuantYOLOv8NanoCPU(b *testing.B) {
	net := models.BuildQuantized(models.V8Nano, 1, 1, 3, 96, 96)
	x := tensor.New(3, 96, 96)
	r := rng.New(2)
	for i := range x.Data {
		x.Data[i] = r.Float32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForwardQuant(x)
	}
}

// BenchmarkMatMulInt8 measures the int8 GEMM with fused requantization
// at the YOLO backbone shape (64ch 3×3 conv at 40×40 lowered to
// [128,576]×[576,1600]) — the kernel the BENCHMARKS.md ≥1.5x speedup
// claim is recorded against, with BenchmarkMatMulYOLO as its fp32
// baseline.
func BenchmarkMatMulInt8(b *testing.B) {
	r := rng.New(3)
	a := tensor.New(128, 576)
	c := tensor.New(576, 1600)
	for i := range a.Data {
		a.Data[i] = r.Float32()
	}
	for i := range c.Data {
		c.Data[i] = r.Float32()
	}
	qa := tensor.QuantizePerChannel(a)
	qc := tensor.QuantizeSymmetric(c)
	rowScale := make([]float32, 128)
	for i := range rowScale {
		rowScale[i] = qa.ScaleFor(i) * qc.Scales[0]
	}
	dst := tensor.New(128, 1600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInt8Into(dst, qa, qc, rowScale)
	}
}

// BenchmarkMatMulYOLO is the fp32 GEMM at the same YOLO backbone shape
// as BenchmarkMatMulInt8.
func BenchmarkMatMulYOLO(b *testing.B) {
	r := rng.New(3)
	a := tensor.New(128, 576)
	c := tensor.New(576, 1600)
	dst := tensor.New(128, 1600)
	for i := range a.Data {
		a.Data[i] = r.Float32()
	}
	for i := range c.Data {
		c.Data[i] = r.Float32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(dst, a, c)
	}
}

// BenchmarkConv2DInt8 measures the quantized conv (fused quantizing
// im2col + int8 GEMM) on the same backbone layer shape as
// BenchmarkConv2D.
func BenchmarkConv2DInt8(b *testing.B) {
	spec := tensor.ConvSpec{InC: 64, OutC: 128, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	x := tensor.New(64, 40, 40)
	w := tensor.New(128, 64, 3, 3)
	r := rng.New(4)
	for i := range x.Data {
		x.Data[i] = r.Float32()
	}
	for i := range w.Data {
		w.Data[i] = r.Float32()
	}
	qw := tensor.QuantizePerChannel(w)
	xScale := float32(1.0) / 127
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Conv2DQ(x, qw, nil, spec, xScale)
	}
}

// BenchmarkMatVec measures the row-banded matrix-vector kernel (the
// attention/decoder projection shape).
func BenchmarkMatVec(b *testing.B) {
	a := tensor.New(1024, 1024)
	x := tensor.New(1024)
	r := rng.New(5)
	for i := range a.Data {
		a.Data[i] = r.Float32()
	}
	for i := range x.Data {
		x.Data[i] = r.Float32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatVec(a, x)
	}
}

// BenchmarkTranspose measures the parallel blocked transpose at the
// attention score-matrix shape (n×n with n = 40×40 anchors).
func BenchmarkTranspose(b *testing.B) {
	a := tensor.New(1600, 1600)
	r := rng.New(6)
	for i := range a.Data {
		a.Data[i] = r.Float32()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.Transpose(a)
	}
}

// TestMain keeps the harness honest: nn RegMax and the models registry
// must agree before any benchmark runs.
func TestMain(m *testing.M) {
	if nn.RegMax != 16 {
		panic("DFL RegMax diverged from the Ultralytics default")
	}
	os.Exit(m.Run())
}
