package nn

import (
	"testing"

	"ocularone/internal/rng"
	"ocularone/internal/tensor"
)

// calFrames builds a small calibration stream of random frames.
func calFrames(r *rng.RNG, n, c, h, w int) []*tensor.Tensor {
	out := make([]*tensor.Tensor, n)
	for i := range out {
		f := tensor.New(c, h, w)
		for j := range f.Data {
			f.Data[j] = r.Float32()
		}
		out[i] = f
	}
	return out
}

// tinyYOLONet builds a YOLO-flavoured graph exercising every quantized
// module family: Conv stem, C2f, SPPF, and a detect head.
func tinyYOLONet(seed uint64) *Network {
	r := rng.New(seed)
	nodes := []Node{
		{From: []int{-1}, Module: NewConv(r.Split("l0"), 3, 8, 3, 2, ActSiLU)},
		{From: []int{-1}, Module: NewConv(r.Split("l1"), 8, 16, 3, 2, ActSiLU)},
		{From: []int{-1}, Module: NewC2f(r.Split("l2"), 16, 16, 1, true)},
		{From: []int{-1}, Module: NewSPPF(r.Split("l3"), 16, 16, 5)},
		{From: []int{-1}, Module: NewDetect(r.Split("head"), 1, []int{16})},
	}
	return &Network{Name: "tiny-yolo", Nodes: nodes}
}

// maxAbsDiff returns the largest per-element drift between two tensors.
func maxAbsDiff(t *testing.T, a, b *tensor.Tensor) float32 {
	t.Helper()
	if !a.SameShape(b) {
		t.Fatalf("shape mismatch %v vs %v", a.Shape, b.Shape)
	}
	var mx float32
	for i, v := range a.Data {
		d := v - b.Data[i]
		if d < 0 {
			d = -d
		}
		if d > mx {
			mx = d
		}
	}
	return mx
}

// TestCalibrateQuantizeCounts pins which convs quantize: BN convs in
// backbone blocks do, the detect head (range-sensitive tail) does not.
func TestCalibrateQuantizeCounts(t *testing.T) {
	net := tinyYOLONet(1)
	r := rng.New(2)
	calibrated := Calibrate(net, calFrames(r, 2, 3, 32, 32))
	total := 0
	forEachConv(net, func(*Conv) { total++ })
	if calibrated != total {
		t.Fatalf("calibrated %d of %d convs", calibrated, total)
	}
	quantized := Quantize(net)
	if quantized == 0 {
		t.Fatal("nothing quantized")
	}
	if got := net.QuantizedConvs(); got != quantized {
		t.Fatalf("QuantizedConvs %d, Quantize returned %d", got, quantized)
	}
	// The detect head's convs must all have stayed fp32.
	head := net.Nodes[len(net.Nodes)-1].Module.(*Detect)
	head.EachConv(func(c *Conv) {
		if c.qw != nil {
			t.Fatalf("detect-head conv %s was quantized", c.Name())
		}
	})
	// Everything quantizable outside the head did quantize.
	want := 0
	for _, node := range net.Nodes[:len(net.Nodes)-1] {
		node.Module.(ConvWalker).EachConv(func(c *Conv) {
			if c.quantizable() {
				want++
			}
		})
	}
	if quantized != want {
		t.Fatalf("quantized %d convs, want %d (all quantizable outside the head)", quantized, want)
	}
}

// TestForwardQuantDriftBounded is the parity gate of the int8 path: on
// a calibrated network the quantized forward must track fp32 within a
// small per-element tolerance, and the fp32 path must stay bit-exact
// after calibration and quantization.
func TestForwardQuantDriftBounded(t *testing.T) {
	net := tinyYOLONet(3)
	r := rng.New(4)
	x := calFrames(r, 1, 3, 32, 32)[0]
	before := net.Forward(x)

	Calibrate(net, calFrames(r, 3, 3, 32, 32))
	if n := Quantize(net); n == 0 {
		t.Fatal("nothing quantized")
	}

	after := net.Forward(x)
	for i := range before {
		if d := maxAbsDiff(t, before[i], after[i]); d != 0 {
			t.Fatalf("output %d: fp32 path drifted %v after quantization", i, d)
		}
	}

	quant := net.ForwardQuant(x)
	// Detect-head logits over a 5-conv-deep int8 backbone: drift stays
	// well under one logit unit (measured ~0.011 at this scale; the bound
	// leaves margin while still catching scale/zero-point bugs, which
	// produce O(1) errors).
	const tol = 0.25
	for i := range after {
		if d := maxAbsDiff(t, after[i], quant[i]); d > tol {
			t.Fatalf("output %d: int8 drift %v exceeds %v", i, d, tol)
		}
	}

	// And the quantized path must be deterministic.
	quant2 := net.ForwardQuant(x)
	for i := range quant {
		if d := maxAbsDiff(t, quant[i], quant2[i]); d != 0 {
			t.Fatalf("output %d: ForwardQuant not deterministic (drift %v)", i, d)
		}
	}
}

// TestForwardBatchQuantMatchesForwardQuant pins the batched int8 path
// bit-identical to the per-frame int8 path, mirroring the fp32
// batch-parity guarantee.
func TestForwardBatchQuantMatchesForwardQuant(t *testing.T) {
	net := tinyYOLONet(5)
	r := rng.New(6)
	Calibrate(net, calFrames(r, 2, 3, 32, 32))
	if n := Quantize(net); n == 0 {
		t.Fatal("nothing quantized")
	}
	xs := calFrames(r, 3, 3, 32, 32)
	batched := net.ForwardBatchQuant(xs)
	for b, x := range xs {
		single := net.ForwardQuant(x)
		for i := range single {
			if d := maxAbsDiff(t, single[i], batched[b][i]); d != 0 {
				t.Fatalf("sample %d output %d: batch drift %v", b, i, d)
			}
		}
	}
	for _, outs := range batched {
		tensor.Scratch.Put(outs...)
	}
}

// TestQuantizeResNetAndDepthTails covers the ResNet family: BasicBlock
// convs quantize, the sigmoid-free raw heads stay fp32 via the useBias
// rule.
func TestQuantizeResNetAndDepthTails(t *testing.T) {
	r := rng.New(7)
	var nodes []Node
	nodes, _ = ResNet18Backbone(r.Split("bb"), nodes)
	head := NewConv2d(r.Split("head"), 512, 4, 1)
	nodes = append(nodes, Node{From: []int{len(nodes) - 1}, Module: head})
	net := &Network{Name: "tiny-resnet", Nodes: nodes}

	Calibrate(net, calFrames(r, 2, 3, 32, 32))
	n := Quantize(net)
	if n == 0 {
		t.Fatal("no ResNet convs quantized")
	}
	if head.qw != nil {
		t.Fatal("raw Conv2d head was quantized")
	}

	x := calFrames(r, 1, 3, 32, 32)[0]
	want := net.Forward(x)
	got := net.ForwardQuant(x)
	const tol = 0.5 // deeper stack than tinyYOLONet; measured drift ~0.15
	for i := range want {
		if d := maxAbsDiff(t, want[i], got[i]); d > tol {
			t.Fatalf("output %d drift %v exceeds %v", i, d, tol)
		}
	}
}

// TestSizeBytesINT8 checks the quantized deployment size accounting:
// every int8 weight saves one byte against the fp16 baseline.
func TestSizeBytesINT8(t *testing.T) {
	net := tinyYOLONet(8)
	r := rng.New(9)
	if net.SizeBytesINT8() != net.SizeBytesFP16() {
		t.Fatal("unquantized network must report the fp16 size")
	}
	Calibrate(net, calFrames(r, 1, 3, 32, 32))
	Quantize(net)
	var qbytes int64
	forEachConv(net, func(c *Conv) {
		if c.qw != nil {
			qbytes += int64(len(c.qw.Data))
		}
	})
	if got, want := net.SizeBytesINT8(), net.SizeBytesFP16()-qbytes; got != want {
		t.Fatalf("SizeBytesINT8 %d, want %d", got, want)
	}
}

// SizeBytesINT8 returns the serialized model size with int8 conv
// weights (and fp16 for everything unquantized) — the deployment
// footprint of the quantized engine.
func (n *Network) SizeBytesINT8() int64 {
	var quantized int64
	forEachConv(n, func(c *Conv) {
		if c.qw != nil {
			quantized += int64(len(c.qw.Data))
		}
	})
	return n.Params()*2 - quantized
}
