package main

import (
	"math"
	"runtime"
	"time"

	"ocularone/internal/device"
	"ocularone/internal/models"
	"ocularone/internal/parallel"
	"ocularone/internal/rng"
	"ocularone/internal/serve"
	"ocularone/internal/temporal"
	"ocularone/internal/tensor"
)

// Probes are fixed-count calls to a layer's public functions, made only
// in the traced run, at the workload's GOMAXPROCS.

// warmDeviceModel builds the device model's per-process statistics
// (models.ComputeStats constructs each network once) one model at a
// time with a collection after each, so that the set-up's peak RSS is
// the largest model and not however many weight sets the concurrent
// collector let pile up: under host load that alone moved VmHWM by 20 %
// on the fleets and between 296 and 399 MB on the serve workloads.
func warmDeviceModel(ids ...models.ID) {
	for _, id := range ids {
		models.ComputeStats(id)
		runtime.GC()
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// probeMS is the median wall time of n calls, in ms, after one warm call.
func probeMS(n int, fn func()) float64 {
	fn()
	d := make([]float64, n)
	for i := range d {
		t := time.Now()
		fn()
		d[i] = msSince(t)
	}
	return median(d)
}

// nsPer is the wall time of one call of fn over n items, in ns per item.
func nsPer(n int, fn func()) float64 {
	t := time.Now()
	fn()
	return float64(time.Since(t)) / float64(n)
}

func randTensor(r *rng.RNG, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = r.Float32()
	}
	return t
}

func tensorProbes(out map[string]float64) {
	const calls = 30
	r := rng.New(3)
	// The timing loop writes into one reused buffer, so the MemStats
	// window around it sees the probed function's allocations only.
	var mallocs, probes uint64
	d := make([]float64, calls)
	probe := func(fn func()) float64 {
		fn()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := range d {
			t := time.Now()
			fn()
			d[i] = msSince(t)
		}
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
		probes += calls
		return median(d)
	}

	a, b, dst := randTensor(r, 512, 512), randTensor(r, 512, 512), tensor.New(512, 512)
	ms := probe(func() { tensor.MatMulInto(dst, a, b) })
	out["tensor.gemm_f32_512_ms"] = ms
	out["tensor.gemm_f32_512_gflops"] = 2 * 512 * 512 * 512 / 1e9 / (ms / 1000)

	// The YOLO backbone GEMM shape the repository's kernel benchmarks use.
	ya, yb, ydst := randTensor(r, 128, 576), randTensor(r, 576, 1600), tensor.New(128, 1600)
	out["tensor.gemm_f32_yolo_ms"] = probe(func() { tensor.MatMulInto(ydst, ya, yb) })
	qa, qb := tensor.QuantizePerChannel(ya), tensor.QuantizeSymmetric(yb)
	rowScale := make([]float32, 128)
	for i := range rowScale {
		rowScale[i] = qa.ScaleFor(i) * qb.Scales[0]
	}
	out["tensor.gemm_int8_yolo_ms"] = probe(func() { tensor.MatMulInt8Into(ydst, qa, qb, rowScale) })

	spec := tensor.ConvSpec{InC: 64, OutC: 128, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	x, w := randTensor(r, 64, 40, 40), randTensor(r, 128, 64, 3, 3)
	out["tensor.conv_f32_ms"] = probe(func() { tensor.Conv2D(x, w, nil, spec) })
	qw := tensor.QuantizePerChannel(w)
	out["tensor.conv_int8_ms"] = probe(func() { tensor.Conv2DQ(x, qw, nil, spec, 1.0/127) })
	out["tensor.probe_allocs_per_call"] = float64(mallocs) / float64(probes)
}

// modelsProbes: quantisation cost and the shared plan cache, on yolov8n
// (one key keeps the traced run short; the ledger arithmetic is the same
// for every key).
func modelsProbes(out map[string]float64, int8 bool) {
	models.ResetShared()
	for round := 0; round < 2; round++ {
		if int8 {
			models.AcquireSharedQuantized(models.V8Nano, 1, weightSeed, calibFrames, engineSide, engineSide)
		} else {
			models.AcquireShared(models.V8Nano, 1, weightSeed, engineSide, engineSide)
		}
	}
	st := models.SharedStats()
	out["models.shared_hit_share"] = share(int64(st.Acquires-st.Entries), int64(st.Acquires))
	models.ResetShared()
	if int8 {
		// Back to back and the faster of two each, so that the
		// difference is not the host's mood between two moments.
		fastest := func(fn func()) float64 {
			best := math.Inf(1)
			for i := 0; i < 2; i++ {
				t := time.Now()
				fn()
				best = math.Min(best, msSince(t))
			}
			return best
		}
		quantized := fastest(func() {
			models.BuildQuantized(models.V8Nano, 1, weightSeed, calibFrames, engineSide, engineSide)
		})
		plain := fastest(func() { models.Build(models.V8Nano, 1, weightSeed) })
		out["models.quantize_ms"] = quantized - plain
	}
}

func parallelProbe() float64 {
	d := make([]float64, 1000)
	for i := range d {
		t := time.Now()
		parallel.For(64, func(int) {})
		d[i] = float64(time.Since(t)) / 1e3
	}
	return median(d)
}

func deviceProbes(out map[string]float64) {
	const n = 10000
	jobs := device.PeriodicJobs(models.V8Medium, n, 100)
	out["device.executor_run_ns_per_job"] = nsPer(n, func() {
		device.NewExecutor(device.RTX4090, 1).Run(jobs)
	})
	out["device.run_batch_ns_per_job"] = nsPer(n, func() {
		ex := device.NewExecutor(device.RTX4090, 1)
		var dst []device.Completion
		for g := 0; g+8 <= n; g += 8 {
			dst = ex.RunBatchInto(dst[:0], jobs[g:g+8])
		}
	})
	out["device.microbatcher_ns_per_offer"] = nsPer(n, func() {
		mb := device.NewMicroBatcher(device.NewExecutor(device.RTX4090, 1), device.BatchConfig{MaxBatch: 8, WindowMS: 25})
		for _, j := range jobs {
			mb.Offer(j)
		}
		mb.Flush()
	})
	var sink float64
	out["device.predict_ns"] = nsPer(100000, func() {
		for i := 0; i < 100000; i++ {
			sink += device.PredictBatchMS(models.V8Medium, device.RTX4090, 1+i%8, device.FP32)
		}
	})
	_ = sink
}

func serveProbes(out map[string]float64, seed uint64) {
	// Hold pattern: a steady population of 1024 events, each pop
	// rescheduled one population-width ahead.
	const population, ops = 1024, 1_000_000
	q := serve.NewCalQueue(population, 1)
	for i := 0; i < population; i++ {
		q.Push(serve.Event{TimeMS: float64(i)})
	}
	out["serve.calqueue_ns_per_op"] = nsPer(ops, func() {
		for i := 0; i < ops; i++ {
			e, _ := q.Pop()
			e.TimeMS += population
			q.Push(e)
		}
	})
	const arrivals = 100_000
	traffic := serveConfig(seed, false).Traffic
	out["serve.traffic_ns_per_arrival"] = nsPer(arrivals, func() { traffic.ArrivalTrace(0, arrivals) })
}

func temporalProbe() float64 {
	const n = 100_000
	p := temporal.NewPolicy(temporal.Config{})
	var sink temporal.Rung
	ns := nsPer(n, func() {
		for i := 0; i < n; i++ {
			sink += p.Select(temporal.Signals{QueueDelayMS: float64(i % 50), SlackMS: 100})
		}
	})
	_ = sink
	return ns
}
