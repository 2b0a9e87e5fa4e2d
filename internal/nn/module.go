package nn

import (
	"fmt"

	"ocularone/internal/tensor"
)

// Shape is a CHW activation shape flowing through the graph.
type Shape struct {
	C, H, W int
}

// Volume returns C*H*W.
func (s Shape) Volume() int { return s.C * s.H * s.W }

func (s Shape) String() string { return fmt.Sprintf("[%d,%d,%d]", s.C, s.H, s.W) }

// Module is a forward-only network component. Forward is the reference
// interpreter — one fresh-tensor evaluation, the semantics every other
// execution path is pinned against — and Lower is the compiled path:
// it emits the module's primitive plan ops (fused conv+BN+activation,
// residual adds, pooling, attention cores) into a Plan under
// construction. Batched and quantized execution have no per-module
// code any more: the plan executor batches inside its ops and
// quantizes by switching kernel sets per Execute call.
type Module interface {
	// Name returns a short human-readable identifier.
	Name() string
	// Forward runs the module on its inputs (most modules take one).
	Forward(xs []*tensor.Tensor) *tensor.Tensor
	// Lower compiles the module into primitive plan ops, returning the
	// value holding its output. ins are the compiled values of the
	// inputs Forward would receive.
	Lower(b *planBuilder, ins []planVal) planVal
	// Cost returns multiply-accumulate FLOPs (2 ops per MAC) and the
	// output shape for the given input shapes.
	Cost(in []Shape) (flops int64, out Shape)
}

// Node wires a module into a Network graph. From lists the indices of the
// producer nodes (negative values index backwards: -1 is the previous
// node), mirroring the Ultralytics YAML convention.
type Node struct {
	From   []int
	Module Module
}

// Network is a static DAG of modules evaluated in topological (list)
// order. Outputs lists the node indices whose activations the network
// returns (e.g. the three detect-head inputs).
//
// All four public forward paths — Forward, ForwardBatch, ForwardQuant,
// ForwardBatchQuant — are thin wrappers over one compiled executor:
// the network is lowered once per input shape into a Plan
// (see Compile) and every call routes through Plan.Execute. The
// original node-walking interpreter survives as ForwardInterp /
// ForwardQuantInterp, the bit-exact reference the plan parity suite
// pins against and the path Calibrate observes activations on.
//
// A Network is not safe for concurrent forward passes.
type Network struct {
	Name    string
	Nodes   []Node
	Outputs []int

	plans map[planKey]*Plan
}

// planKey identifies one compiled input shape.
type planKey struct{ c, h, w int }

// PlanFor returns the compiled plan for input shape [c, h, w],
// compiling and caching it on first use. Quantize may run before or
// after compilation: plan conv ops consult the conv's quantized
// weights at execution time.
func (n *Network) PlanFor(c, h, w int) *Plan {
	if n.plans == nil {
		n.plans = map[planKey]*Plan{}
	}
	k := planKey{c, h, w}
	if p, ok := n.plans[k]; ok {
		return p
	}
	p := Compile(n, c, h, w)
	n.plans[k] = p
	return p
}

// materialize copies plan outputs (which alias the plan's arena) into
// fresh pool-backed tensors the caller owns — preserving the historic
// forward-path contract that returned activations are independent
// tensors callers may keep or recycle via tensor.Scratch.Put.
func materialize(outs []*tensor.Tensor) []*tensor.Tensor {
	res := make([]*tensor.Tensor, len(outs))
	for i, o := range outs {
		t := tensor.Scratch.Get(o.Shape...)
		copy(t.Data, o.Data)
		res[i] = t
	}
	return res
}

// resolve maps a possibly negative `from` reference at node i to an
// absolute node index.
func (n *Network) resolve(i, from int) int {
	if from < 0 {
		return i + from
	}
	return from
}

// Forward evaluates the network on input x through the compiled plan
// and returns the activations of the Outputs nodes (or the last node
// if Outputs is empty) as fresh caller-owned tensors. Results are
// bit-exact against ForwardInterp.
func (n *Network) Forward(x *tensor.Tensor) []*tensor.Tensor {
	p := n.PlanFor(x.Shape[0], x.Shape[1], x.Shape[2])
	return materialize(p.Execute([]*tensor.Tensor{x}, ExecOpts{})[0])
}

// ForwardBatch evaluates the network on a batch of same-shape inputs
// in one compiled pass: every convolution lowers the whole batch to a
// single im2col + GEMM per group, so weight streaming is amortised
// across samples. result[b] matches what Forward(xs[b]) returns,
// bit for bit.
func (n *Network) ForwardBatch(xs []*tensor.Tensor) [][]*tensor.Tensor {
	if len(xs) == 0 {
		return nil
	}
	x := xs[0]
	p := n.PlanFor(x.Shape[0], x.Shape[1], x.Shape[2])
	res := p.Execute(xs, ExecOpts{})
	outs := make([][]*tensor.Tensor, len(res))
	for b := range res {
		outs[b] = materialize(res[b])
	}
	return outs
}

// ForwardQuant evaluates the network with every quantized conv routed
// through the int8 kernels; unquantized modules (detect heads,
// attention, anything Quantize skipped) run fp32 as usual. The network
// must have been calibrated and quantized. ForwardQuant and Forward
// may be interleaved freely on the same network.
func (n *Network) ForwardQuant(x *tensor.Tensor) []*tensor.Tensor {
	if n.QuantizedConvs() == 0 {
		panic(fmt.Sprintf("nn: ForwardQuant on %q without Quantize (or nothing quantizable)", n.Name))
	}
	p := n.PlanFor(x.Shape[0], x.Shape[1], x.Shape[2])
	return materialize(p.Execute([]*tensor.Tensor{x}, ExecOpts{Precision: INT8})[0])
}

// ForwardBatchQuant is the batched counterpart of ForwardQuant — the
// same compiled program at int8 precision and batch width len(xs).
// Results are bit-identical to per-sample ForwardQuant.
func (n *Network) ForwardBatchQuant(xs []*tensor.Tensor) [][]*tensor.Tensor {
	if n.QuantizedConvs() == 0 {
		panic(fmt.Sprintf("nn: ForwardBatchQuant on %q without Quantize (or nothing quantizable)", n.Name))
	}
	if len(xs) == 0 {
		return nil
	}
	x := xs[0]
	p := n.PlanFor(x.Shape[0], x.Shape[1], x.Shape[2])
	res := p.Execute(xs, ExecOpts{Precision: INT8})
	outs := make([][]*tensor.Tensor, len(res))
	for b := range res {
		outs[b] = materialize(res[b])
	}
	return outs
}

// ForwardInterp evaluates the graph node by node with each module's
// Forward — the original interpreter, kept as the bit-exact reference
// for the plan parity suite and as the observation pass Calibrate
// hooks (conv inputs are only visible module-by-module here).
func (n *Network) ForwardInterp(x *tensor.Tensor) []*tensor.Tensor {
	acts := make([]*tensor.Tensor, len(n.Nodes))
	for i, node := range n.Nodes {
		ins := make([]*tensor.Tensor, len(node.From))
		for j, f := range node.From {
			fi := n.resolve(i, f)
			if fi == -1 {
				ins[j] = x
			} else if fi < -1 || fi >= i {
				panic(fmt.Sprintf("nn: node %d references invalid node %d", i, fi))
			} else {
				ins[j] = acts[fi]
			}
		}
		acts[i] = node.Module.Forward(ins)
	}
	if len(n.Outputs) == 0 {
		return []*tensor.Tensor{acts[len(acts)-1]}
	}
	outs := make([]*tensor.Tensor, len(n.Outputs))
	for i, oi := range n.Outputs {
		outs[i] = acts[oi]
	}
	return outs
}

// Params returns the trainable parameter count (conv weights, biases,
// BN affine terms), matching the convention Ultralytics reports: every
// parameter the network has lives in a conv, so it is the sum of
// Conv.Params over them.
func (n *Network) Params() int64 {
	var total int64
	forEachConv(n, func(c *Conv) { total += c.Params() })
	return total
}

// Cost propagates shapes through the graph from the given input shape and
// returns total FLOPs plus the output shapes.
func (n *Network) Cost(in Shape) (int64, []Shape) {
	shapes := make([]Shape, len(n.Nodes))
	var total int64
	for i, node := range n.Nodes {
		ins := make([]Shape, len(node.From))
		for j, f := range node.From {
			fi := n.resolve(i, f)
			if fi == -1 {
				ins[j] = in
			} else {
				ins[j] = shapes[fi]
			}
		}
		fl, out := node.Module.Cost(ins)
		total += fl
		shapes[i] = out
	}
	if len(n.Outputs) == 0 {
		return total, []Shape{shapes[len(shapes)-1]}
	}
	outs := make([]Shape, len(n.Outputs))
	for i, oi := range n.Outputs {
		outs[i] = shapes[oi]
	}
	return total, outs
}

// SizeBytesFP16 returns the serialized model size assuming 16-bit
// weights, the deployment format behind Table 2's "Model Size (MB)".
func (n *Network) SizeBytesFP16() int64 { return n.Params() * 2 }
