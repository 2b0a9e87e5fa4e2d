package nn

import (
	"fmt"

	"ocularone/internal/tensor"
)

// This file is the post-training-quantization layer of the NN engine:
// Calibrate records per-conv activation ranges on a representative
// frame stream, and Quantize snapshots symmetric per-channel int8
// weights for every range-safe conv. Execution is the plan's job:
// Plan.Execute at INT8 precision routes every quantized conv through
// the fused int8 im2col+GEMM kernels (Network.ForwardQuant and
// ForwardBatchQuant are thin wrappers over it). Range-sensitive tails
// — the detect head's DFL/class logits and the attention blocks'
// softmax inputs — always stay fp32: their outputs feed exponentials
// where a single activation quantization step is amplified, and they
// are a tiny share of FLOPs.

// ConvWalker is implemented by every module that owns Conv blocks; it
// visits each of them exactly once. Modules without convolutions
// (pooling, upsampling, concat) simply do not implement it.
type ConvWalker interface {
	EachConv(fn func(*Conv))
}

// forEachConv visits every conv of every node of the network.
func forEachConv(n *Network, fn func(*Conv)) {
	for _, node := range n.Nodes {
		if w, ok := node.Module.(ConvWalker); ok {
			w.EachConv(fn)
		}
	}
}

// calibState accumulates the activation range a conv's input sees
// during a calibration pass.
type calibState struct {
	absMax float32
}

func (s *calibState) observe(x *tensor.Tensor) {
	mx := s.absMax
	for _, v := range x.Data {
		if v < 0 {
			v = -v
		}
		if v > mx {
			mx = v
		}
	}
	s.absMax = mx
}

// Calibrate runs the network in fp32 over a stream of representative
// input frames while every conv records the absolute range of its input
// activations, then freezes each conv's symmetric activation scale
// (absmax/127). Calibration is the accuracy half of post-training
// quantization: the scale decides how the int8 grid is spent, and a
// range observed on real frames wastes none of it on headroom.
// It returns the number of convs calibrated. Frames must be non-empty
// and match the network's expected input shape.
func Calibrate(n *Network, frames []*tensor.Tensor) int {
	if len(frames) == 0 {
		panic("nn: Calibrate with no frames")
	}
	count := 0
	forEachConv(n, func(c *Conv) {
		c.calib = &calibState{}
		count++
	})
	for _, f := range frames {
		n.ForwardInterp(f)
	}
	forEachConv(n, func(c *Conv) {
		c.inScale = c.calib.absMax / 127
		c.calib = nil
	})
	return count
}

// quantizable reports whether one conv is safe to run in int8: it must
// be calibrated (a positive input scale), be a BN-folded conv (raw
// Conv2d prediction layers are the heads' logit emitters), and not feed
// a sigmoid directly (the depth decoder's disparity path, where
// quantization steps turn into range compression).
func (c *Conv) quantizable() bool {
	return c.inScale > 0 && !c.useBias && c.act != ActSigmoid
}

// Quantize snapshots symmetric per-channel int8 weights for every
// quantizable conv of a calibrated network, skipping the
// range-sensitive tail modules (detect heads and attention blocks)
// entirely. The fp32 weights are kept untouched beside the int8 twin,
// so Forward keeps its exact pre-quantization behaviour and
// ForwardQuant switches paths per call. It returns the number of convs
// now carrying int8 weights.
func Quantize(n *Network) int {
	count := 0
	for _, node := range n.Nodes {
		switch node.Module.(type) {
		case *Detect, *C2PSA:
			// Softmax/exponential consumers: DFL box distributions and
			// class logits in Detect, attention scores in C2PSA.
			continue
		}
		w, ok := node.Module.(ConvWalker)
		if !ok {
			continue
		}
		w.EachConv(func(c *Conv) {
			if !c.quantizable() {
				return
			}
			c.qw = tensor.QuantizePerChannel(c.weight)
			count++
		})
	}
	return count
}

// QuantizedConvs reports how many convs currently carry int8 weights.
func (n *Network) QuantizedConvs() int {
	count := 0
	forEachConv(n, func(c *Conv) {
		if c.qw != nil {
			count++
		}
	})
	return count
}

// setInt8 flips the int8 routing switch on every conv (only convs with
// quantized weights actually change paths).
func (n *Network) setInt8(on bool) {
	forEachConv(n, func(c *Conv) { c.int8On = on })
}

// ForwardQuantInterp replays the node-walking interpreter with every
// quantized conv routed through the unfused int8 kernels — the
// reference the plan's int8 parity is pinned against. The network must
// have been calibrated and quantized.
func (n *Network) ForwardQuantInterp(x *tensor.Tensor) []*tensor.Tensor {
	if n.QuantizedConvs() == 0 {
		panic(fmt.Sprintf("nn: ForwardQuantInterp on %q without Quantize (or nothing quantizable)", n.Name))
	}
	n.setInt8(true)
	defer n.setInt8(false)
	return n.ForwardInterp(x)
}

// EachConv implements ConvWalker.
func (b *Bottleneck) EachConv(fn func(*Conv)) {
	b.cv1.EachConv(fn)
	b.cv2.EachConv(fn)
}

// EachConv implements ConvWalker.
func (b *C2f) EachConv(fn func(*Conv)) {
	b.cv1.EachConv(fn)
	b.cv2.EachConv(fn)
	for _, m := range b.ms {
		m.EachConv(fn)
	}
}

// EachConv implements ConvWalker.
func (b *C3) EachConv(fn func(*Conv)) {
	b.cv1.EachConv(fn)
	b.cv2.EachConv(fn)
	b.cv3.EachConv(fn)
	for _, m := range b.ms {
		m.EachConv(fn)
	}
}

// EachConv implements ConvWalker.
func (b *C3k2) EachConv(fn func(*Conv)) {
	b.cv1.EachConv(fn)
	b.cv2.EachConv(fn)
	for _, m := range b.ms {
		if w, ok := m.(ConvWalker); ok {
			w.EachConv(fn)
		}
	}
}

// EachConv implements ConvWalker.
func (b *SPPF) EachConv(fn func(*Conv)) {
	b.cv1.EachConv(fn)
	b.cv2.EachConv(fn)
}

// EachConv implements ConvWalker.
func (a *Attention) EachConv(fn func(*Conv)) {
	a.qkv.EachConv(fn)
	a.proj.EachConv(fn)
	a.pe.EachConv(fn)
}

// EachConv implements ConvWalker.
func (p *PSABlock) EachConv(fn func(*Conv)) {
	p.attn.EachConv(fn)
	p.ffn1.EachConv(fn)
	p.ffn2.EachConv(fn)
}

// EachConv implements ConvWalker.
func (b *C2PSA) EachConv(fn func(*Conv)) {
	b.cv1.EachConv(fn)
	b.cv2.EachConv(fn)
	for _, blk := range b.blocks {
		blk.EachConv(fn)
	}
}

// EachConv implements ConvWalker.
func (b *BasicBlock) EachConv(fn func(*Conv)) {
	b.cv1.EachConv(fn)
	b.cv2.EachConv(fn)
	if b.down != nil {
		b.down.EachConv(fn)
	}
}

// EachConv implements ConvWalker.
func (d *Detect) EachConv(fn func(*Conv)) {
	for li := range d.box {
		for _, c := range d.box[li] {
			c.EachConv(fn)
		}
		for _, c := range d.cls[li] {
			c.EachConv(fn)
		}
	}
}
