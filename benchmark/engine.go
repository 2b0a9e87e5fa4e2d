package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"ocularone/internal/device"
	"ocularone/internal/models"
	"ocularone/internal/nn"
	"ocularone/internal/rng"
	"ocularone/internal/tensor"
)

// The engine workloads run one VIP frame through the three networks the
// paper chains, as compiled plans at the 96x96 input the repository's
// recorded trajectory uses. Weights are part of the system (seed 1);
// the ring of input frames is drawn from -seed.
const (
	engineSide   = 96
	engineFrames = 8
	weightSeed   = 1
	calibFrames  = 3
	// int8DriftBound is the bound internal/nn/plan_test.go puts on the
	// int8 plan's distance from fp32 for yolov8n.
	int8DriftBound = 0.25
)

type engineNet struct {
	id   models.ID
	span int32
	net  *nn.Network
	plan *nn.Plan
	// ref[f] is the checksum of the plan's outputs on ring frame f,
	// taken after they matched the interpreter bit for bit.
	ref                         [engineFrames]uint64
	buildMS, compileMS, firstMS float64
}

var engineChain = []struct {
	id   models.ID
	span int32
}{{models.V8Nano, spExecYolo}, {models.Bodypose, spExecPose}, {models.Monodepth2, spExecDepth}}

func setupEngineFP32(seed uint64) (*instance, error) { return setupEngine(seed, false) }
func setupEngineINT8(seed uint64) (*instance, error) { return setupEngine(seed, true) }

func seededFrames(seed uint64, n int) []*tensor.Tensor {
	r := rng.New(seed)
	out := make([]*tensor.Tensor, n)
	for i := range out {
		x := tensor.New(3, engineSide, engineSide)
		for j := range x.Data {
			x.Data[j] = r.Float32()
		}
		out[i] = x
	}
	return out
}

// checksum folds every output element's bit pattern into one word.
func checksum(outs []*tensor.Tensor) uint64 {
	h := fnvOffset
	for _, o := range outs {
		for _, v := range o.Data {
			h = mix(h, uint64(math.Float32bits(v)))
		}
	}
	return h
}

func maxAbsDiff(a, b []*tensor.Tensor) float64 {
	var m float64
	for i := range a {
		for j, v := range a[i].Data {
			m = math.Max(m, math.Abs(float64(v)-float64(b[i].Data[j])))
		}
	}
	return m
}

func sameOutputs(got, want []*tensor.Tensor) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		// Tolerance 0: the plan is pinned bit-exact against the
		// interpreter on every kernel tier (internal/nn/plan_test.go).
		if !got[i].SameShape(want[i]) || !got[i].Equal(want[i], 0) {
			return false
		}
	}
	return true
}

func setupEngine(seed uint64, int8 bool) (*instance, error) {
	batch, opts := 1, nn.ExecOpts{}
	if int8 {
		batch, opts = 4, nn.ExecOpts{Batch: 4, Precision: nn.INT8}
	}
	frames := seededFrames(seed, engineFrames)
	// inputs[slot] is what one op executes: one frame, or four.
	inputs := make([][]*tensor.Tensor, engineFrames/batch)
	for s := range inputs {
		inputs[s] = frames[s*batch : (s+1)*batch]
	}

	nets := make([]engineNet, len(engineChain))
	drift := 0.0
	for k, c := range engineChain {
		n := &nets[k]
		n.id, n.span = c.id, c.span
		t := time.Now()
		if int8 {
			n.net = models.BuildQuantized(c.id, 1, weightSeed, calibFrames, engineSide, engineSide)
		} else {
			n.net = models.Build(c.id, 1, weightSeed)
		}
		n.buildMS = msSince(t)
		t = time.Now()
		n.plan = n.net.PlanFor(3, engineSide, engineSide)
		n.compileMS = msSince(t)

		interp := n.net.ForwardInterp
		if int8 {
			interp = n.net.ForwardQuantInterp
		}
		for s, in := range inputs {
			want := make([][]*tensor.Tensor, batch)
			for b, x := range in {
				want[b] = interp(x)
			}
			t = time.Now()
			got := n.plan.Execute(in, opts)
			if s == 0 {
				n.firstMS = msSince(t)
			}
			for b := range in {
				if !sameOutputs(got[b], want[b]) {
					return nil, fmt.Errorf("%s: plan output differs from the interpreter on ring frame %d", c.id, s*batch+b)
				}
				n.ref[s*batch+b] = checksum(got[b])
			}
			if int8 && c.id == models.V8Nano && s == 0 {
				drift = maxAbsDiff(got[0], n.net.ForwardInterp(in[0]))
				if drift > int8DriftBound {
					return nil, fmt.Errorf("%s: int8 drift from fp32 %.3f exceeds %.2f", c.id, drift, int8DriftBound)
				}
			}
		}
	}

	// Dense inference costs the same whatever the pixel values, so for
	// the floor estimator the ring frames are one slot: the fastest op of
	// the run, which needs a single undisturbed op, not one per frame.
	inst := &instance{itemsPerOp: float64(batch), ring: 1}
	prec := device.FP32
	if int8 {
		prec = device.INT8
	}
	for _, c := range engineChain {
		warmDeviceModel(c.id)
	}
	inst.sim = modelledChain(seed, batch, prec)
	inst.op = func(i int, tr *tracer, lp *laps) error {
		slot := i % len(inputs)
		in := inputs[slot]
		var bad error
		op := tr.begin(spOp, -1, int32(i), -1)
		for k := range nets {
			n := &nets[k]
			e := tr.begin(n.span, op, int32(i), -1)
			outs := n.plan.Execute(in, opts)
			tr.end(e)
			lp.mark()
			c := tr.begin(spChecksum, op, int32(i), -1)
			for b := range outs {
				if checksum(outs[b]) != n.ref[slot*batch+b] {
					bad = fmt.Errorf("%s: output checksum differs from the reference on ring frame %d", n.id, slot*batch+b)
				}
			}
			tr.end(c)
			lp.mark()
		}
		tr.end(op)
		return bad
	}
	inst.layer = func(lc *layerCtx) {
		engineLayers(lc, nets, frames, batch, int8, drift)
		if !int8 && runtime.GOMAXPROCS(0) == 1 {
			// engine_fp32_p2 is not a gated workload (README.md), so the
			// one-core run also says what the second core buys this op.
			runtime.GOMAXPROCS(2)
			p2 := timed(inst, lc.probeSpan, nil, 0).wall.ms()
			runtime.GOMAXPROCS(1)
			lc.out["parallel.engine_p2_ms"] = p2
			lc.out["parallel.engine_p2_speedup"] = lc.untraced.wall.ms() / p2
		}
	}
	return inst, nil
}

// modelledChain is the same chain on the modelled edge device, so the
// simulated clock sits beside the host clock: one closed-loop stream of
// frames (or batches) through the three networks on an Orin Nano with
// planned engines. Nothing is shed in a closed loop.
func modelledChain(seed uint64, batch int, prec device.Precision) simStats {
	const groups = 2048
	ex := device.NewExecutor(device.OrinNano, seed)
	jobs := make([]device.Job, batch)
	lat := make([]float64, 0, groups)
	now := 0.0
	for g := 0; g < groups; g++ {
		start := now
		for _, c := range engineChain {
			for b := range jobs {
				jobs[b] = device.Job{Model: c.id, ArrivalMS: now, Precision: prec, Engine: device.Planned}
			}
			cs := ex.RunBatch(jobs)
			now = cs[len(cs)-1].FinishMS
		}
		lat = append(lat, now-start)
	}
	return simStats{
		goodputPerS: float64(groups*batch) / (now / 1000),
		p99MS:       quantile(sorted(lat), 0.99),
		servedShare: 1,
	}
}

func engineLayers(lc *layerCtx, nets []engineNet, frames []*tensor.Tensor, batch int, int8 bool, drift float64) {
	out := lc.out
	var compile, bind, ops, arena float64
	for k := range nets {
		n := &nets[k]
		exec := lc.stats.floorMS(n.span)
		flops, _ := n.net.Cost(nn.Shape{C: 3, H: engineSide, W: engineSide})
		out["nn.exec_ms."+n.id.String()] = exec
		out["nn.gflops."+n.id.String()] = float64(flops) * float64(batch) / 1e9 / (exec / 1000)
		out["models.build_ms."+n.id.String()] = n.buildMS
		compile += n.compileMS
		bind += n.firstMS - exec
		ops += float64(n.plan.Ops())
		_, perSample := n.plan.Slots()
		arena += float64(perSample * batch)
	}
	out["nn.compile_ms"] = compile
	out["nn.bind_ms"] = bind
	out["nn.plan_ops"] = ops
	out["nn.arena_floats"] = arena
	out["nn.allocs_per_exec"] = float64(lc.untraced.mallocs) / lc.untraced.ops() / float64(len(nets))
	out["nn.int8_drift_max"] = drift

	yolo := &nets[0]
	in := frames[:batch]
	wrapper := probeMS(30, func() {
		if int8 {
			yolo.net.ForwardBatchQuant(in)
		} else {
			yolo.net.Forward(in[0])
		}
	})
	out["nn.wrapper_ms.yolov8n"] = wrapper - out["nn.exec_ms.yolov8n"]
	out["nn.interp_ms.yolov8n"] = probeMS(5, func() {
		if int8 {
			yolo.net.ForwardQuantInterp(in[0])
		} else {
			yolo.net.ForwardInterp(in[0])
		}
	})
	modelsProbes(out, int8)
	tensorProbes(out)
	out["parallel.for_overhead_us"] = parallelProbe()
}
