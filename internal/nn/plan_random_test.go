package nn

import (
	"fmt"
	"testing"

	"ocularone/internal/rng"
	"ocularone/internal/tensor"
)

// The eight Table-2 models sample the conv shapes at a handful of
// points; every route choice under a conv (narrow or stripe tile, folded
// or per-sample int8 batch, half-width tail) is a rule over the shape.
// randomNet draws small DAGs whose convs land anywhere: any channel
// count from 1, any grouping, planes from 40×40 down to 1×1.

// randomNet builds a seeded random network on a 3-channel side×side
// input out of Conv (dense, two groups, depthwise; 1×1 or 3×3; stride 1
// or 2; any activation), Bottleneck, C2f, SPPF, Upsample and Concat
// nodes. The last node and one earlier node are the outputs.
func randomNet(seed uint64, side int) *Network {
	r := rng.New(seed)
	shapes := []Shape{} // per node output
	var nodes []Node
	add := func(from []int, m Module) {
		in := make([]Shape, len(from))
		for i, f := range from {
			in[i] = Shape{C: 3, H: side, W: side}
			if f >= 0 {
				in[i] = shapes[f]
			}
		}
		_, out := m.Cost(in)
		nodes = append(nodes, Node{From: from, Module: m})
		shapes = append(shapes, out)
	}
	acts := []Act{ActSiLU, ActReLU, ActNone, ActSigmoid}
	randConv := func(from int, in Shape, rc *rng.RNG) {
		k, stride := 1+2*r.Intn(2), 1+r.Intn(2)
		groups, outC := 1, 1+r.Intn(12)
		switch r.Intn(3) {
		case 1:
			if in.C%2 == 0 {
				groups, outC = 2, 2*(1+r.Intn(5))
			}
		case 2:
			groups, outC = in.C, in.C*(1+r.Intn(2))
		}
		add([]int{from}, newConvFull(rc, in.C, outC, k, stride, k/2, groups, rng.Choose(r, acts), false))
	}
	randConv(-1, Shape{C: 3, H: side, W: side}, r.Split("stem"))
	for i, n := 1, 4+r.Intn(6); i < n; i++ {
		from := len(nodes) - 1 - r.Intn(min(len(nodes), 2))
		in := shapes[from]
		rm := r.SplitN("node", i)
		switch op := r.Intn(8); {
		case op == 0:
			c2 := 1 + r.Intn(10)
			add([]int{from}, NewBottleneck(rm, in.C, c2, r.Bool(0.5), 0.5))
		case op == 1:
			add([]int{from}, NewC2f(rm, in.C, 2*(1+r.Intn(4)), 1+r.Intn(2), r.Bool(0.5)))
		case op == 2:
			add([]int{from}, NewSPPF(rm, in.C, 1+r.Intn(8), 5))
		case op == 3 && in.H <= 20:
			add([]int{from}, Upsample{})
		case op == 4:
			// Concat with any earlier node of the same plane.
			for other := range shapes {
				if other != from && shapes[other].H == in.H && shapes[other].W == in.W {
					add([]int{from, other}, Concat{})
					break
				}
			}
		default:
			randConv(from, in, rm)
		}
	}
	last := len(nodes) - 1
	return &Network{Name: fmt.Sprintf("random-%d", seed), Nodes: nodes, Outputs: []int{r.Intn(last + 1), last}}
}

func randomFrames(seed uint64, n, side int) []*tensor.Tensor {
	r := rng.New(seed)
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = tensor.New(3, side, side)
		for j := range xs[i].Data {
			xs[i].Data[j] = r.Float32()
		}
	}
	return xs
}

// TestPlanRandomNetsMatchInterp holds Plan.Execute to the node-walking
// interpreter at tolerance 0 on seeded random networks at input sides
// 8–40: fp32 against ForwardInterp and, calibrated and quantized, int8
// against ForwardQuantInterp, each sample alone and as a batch of three.
func TestPlanRandomNetsMatchInterp(t *testing.T) {
	const nets = 40
	for seed := uint64(1); seed <= nets; seed++ {
		side := 8 + int(seed*7%33)
		net := randomNet(seed, side)
		xs := randomFrames(seed^0x5eed, 3, side)
		Calibrate(net, xs)
		if Quantize(net) == 0 {
			t.Fatalf("net %d: nothing quantized", seed)
		}
		p := net.PlanFor(3, side, side)
		for _, prec := range []Precision{FP32, INT8} {
			want := make([][]*tensor.Tensor, len(xs))
			for s, x := range xs {
				if prec == INT8 {
					want[s] = net.ForwardQuantInterp(x)
				} else {
					want[s] = net.ForwardInterp(x)
				}
			}
			check := func(what string, s int, got []*tensor.Tensor) {
				for oi := range want[s] {
					if !got[oi].SameShape(want[s][oi]) || !got[oi].Equal(want[s][oi], 0) {
						t.Fatalf("net %d (side %d, %d nodes) %v %s: sample %d output %d diverges from the interpreter",
							seed, side, len(net.Nodes), prec, what, s, oi)
					}
				}
			}
			for s, x := range xs {
				check("batch 1", s, p.Execute([]*tensor.Tensor{x}, ExecOpts{Precision: prec})[0])
			}
			for s, got := range p.Execute(xs, ExecOpts{Precision: prec}) {
				check("batch 3", s, got)
			}
		}
	}
}

// TestPlanRandomNetZeroAlloc is TestPlanZeroAllocSteadyState on one of
// the random networks: whatever shapes its convs drew, a bound instance
// executes without allocating, fp32 and int8, alone and batched.
func TestPlanRandomNetZeroAlloc(t *testing.T) {
	const seed, side = 7, 24
	net := randomNet(seed, side)
	xs := randomFrames(seed, 3, side)
	Calibrate(net, xs)
	Quantize(net)
	p := net.PlanFor(3, side, side)
	for _, prec := range []Precision{FP32, INT8} {
		for _, in := range [][]*tensor.Tensor{xs[:1], xs} {
			run := func() { p.Execute(in, ExecOpts{Precision: prec}) }
			run()
			if allocs := testing.AllocsPerRun(3, run); allocs != 0 {
				t.Errorf("%v batch %d: %.0f allocations per steady-state Execute, want 0", prec, len(in), allocs)
			}
		}
	}
}
