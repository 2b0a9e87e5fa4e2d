package nn

import (
	"fmt"

	"ocularone/internal/rng"
	"ocularone/internal/tensor"
)

// Attention is the position-sensitive multi-head self-attention block of
// YOLOv11's C2PSA (attn_ratio 0.5: key dim is half the head dim).
type Attention struct {
	dim, numHeads   int
	keyDim, headDim int
	qkv, proj, pe   *Conv
	scale           float32
}

// NewAttention builds attention over dim channels with dim/64 heads
// (minimum 1), matching Ultralytics.
func NewAttention(r *rng.RNG, dim int) *Attention {
	numHeads := dim / 64
	if numHeads < 1 {
		numHeads = 1
	}
	headDim := dim / numHeads
	keyDim := headDim / 2
	if keyDim < 1 {
		keyDim = 1
	}
	h := dim + numHeads*keyDim*2
	a := &Attention{
		dim: dim, numHeads: numHeads, keyDim: keyDim, headDim: headDim,
		qkv:   NewConv(r.Split("qkv"), dim, h, 1, 1, ActNone),
		proj:  NewConv(r.Split("proj"), dim, dim, 1, 1, ActNone),
		pe:    NewConvDW(r.Split("pe"), dim, 3, 1, ActNone),
		scale: 1 / float32(intSqrt(keyDim)),
	}
	return a
}

func intSqrt(v int) float64 {
	x := float64(v)
	if x <= 0 {
		return 1
	}
	// Two Newton steps suffice for the small key dims in play; exactness
	// is irrelevant to a scale factor.
	g := x
	for i := 0; i < 24; i++ {
		g = 0.5 * (g + x/g)
	}
	return g
}

// Name implements Module.
func (a *Attention) Name() string { return fmt.Sprintf("attn_h%d", a.numHeads) }

// Forward implements Module.
func (a *Attention) Forward(xs []*tensor.Tensor) *tensor.Tensor {
	x := xs[0]
	h, w := x.Shape[1], x.Shape[2]
	n := h * w
	qkv := a.qkv.Forward(xs) // [(2*kd+hd)*heads, H, W]

	out := tensor.New(a.dim, h, w)
	kd, hd := a.keyDim, a.headDim
	perHead := 2*kd + hd
	for head := 0; head < a.numHeads; head++ {
		base := head * perHead * n
		q := tensor.FromSlice(qkv.Data[base:base+kd*n], kd, n)
		k := tensor.FromSlice(qkv.Data[base+kd*n:base+2*kd*n], kd, n)
		v := tensor.FromSlice(qkv.Data[base+2*kd*n:base+perHead*n], hd, n)
		// attn = softmax((qᵀk) * scale) over keys.
		attn := tensor.MatMul(tensor.Transpose(q), k) // [n, n]
		attn.Scale(a.scale)
		attn.Softmax()
		// out_head = v × attnᵀ → [hd, n].
		oh := tensor.MatMul(v, tensor.Transpose(attn))
		copy(out.Data[head*hd*n:(head+1)*hd*n], oh.Data)
	}
	// Positional encoding branch: depthwise conv over v reshaped to CHW.
	vAll := tensor.New(a.dim, h, w)
	for head := 0; head < a.numHeads; head++ {
		base := head*perHead*n + 2*kd*n
		copy(vAll.Data[head*hd*n:(head+1)*hd*n], qkv.Data[base:base+hd*n])
	}
	out.Add(a.pe.Forward([]*tensor.Tensor{vAll}))
	return a.proj.Forward([]*tensor.Tensor{out})
}

// Lower implements Module: the qkv, positional-encoding, and
// projection convs lower to fused conv ops; the per-head attention
// matmuls become one attnCoreOp with prebound head views and shared
// matmul scratch.
func (a *Attention) Lower(pb *planBuilder, ins []planVal) planVal {
	_, h, w := pb.chw(ins[0])
	qkv := a.qkv.Lower(pb, ins)
	out := pb.val(a.dim, h, w)
	vAll := pb.val(a.dim, h, w)
	pb.emit(&attnCoreOp{a: a, qkv: qkv, out: out, vAll: vAll, n: h * w})
	pe := a.pe.Lower(pb, []planVal{vAll})
	pb.emit(&addOp{dst: out, src: pe})
	return a.proj.Lower(pb, []planVal{out})
}

// Cost implements Module.
func (a *Attention) Cost(in []Shape) (int64, Shape) {
	s := in[0]
	n := int64(s.H * s.W)
	fq, _ := a.qkv.Cost(in)
	fp, _ := a.pe.Cost(in)
	fj, _ := a.proj.Cost(in)
	// Attention matmuls: qᵀk and v×attnᵀ per head.
	attnFlops := int64(a.numHeads) * (2*n*n*int64(a.keyDim) + 2*n*n*int64(a.headDim))
	return fq + fp + fj + attnFlops, s
}

// PSABlock is attention + a two-layer conv FFN, both with residuals.
type PSABlock struct {
	attn       *Attention
	ffn1, ffn2 *Conv
}

// NewPSABlock builds one PSA block over c channels.
func NewPSABlock(r *rng.RNG, c int) *PSABlock {
	return &PSABlock{
		attn: NewAttention(r.Split("attn"), c),
		ffn1: NewConv(r.Split("ffn1"), c, c*2, 1, 1, ActSiLU),
		ffn2: NewConv(r.Split("ffn2"), c*2, c, 1, 1, ActNone),
	}
}

// Name implements Module.
func (p *PSABlock) Name() string { return "psablock" }

// Forward implements Module.
func (p *PSABlock) Forward(xs []*tensor.Tensor) *tensor.Tensor {
	x := xs[0].Clone()
	x.Add(p.attn.Forward([]*tensor.Tensor{x}))
	y := p.ffn2.Forward([]*tensor.Tensor{p.ffn1.Forward([]*tensor.Tensor{x})})
	y.Add(x)
	return y
}

// Lower implements Module: the residual snapshot is an arena copy, the
// two adds mutate in place exactly as the interpreter does.
func (p *PSABlock) Lower(pb *planBuilder, ins []planVal) planVal {
	c, h, w := pb.chw(ins[0])
	res := pb.val(c, h, w)
	pb.emit(&copyOp{dst: res, src: ins[0]})
	at := p.attn.Lower(pb, []planVal{res})
	pb.emit(&addOp{dst: res, src: at})
	hid := p.ffn1.Lower(pb, []planVal{res})
	y := p.ffn2.Lower(pb, []planVal{hid})
	pb.emit(&addOp{dst: y, src: res})
	return y
}

// Cost implements Module.
func (p *PSABlock) Cost(in []Shape) (int64, Shape) {
	fa, s := p.attn.Cost(in)
	f1, s1 := p.ffn1.Cost([]Shape{s})
	f2, s2 := p.ffn2.Cost([]Shape{s1})
	return fa + f1 + f2 + 2*int64(s2.Volume()), s2
}

// C2PSA wraps n PSABlocks in a cross-stage-partial structure; it sits
// after SPPF in every YOLOv11 backbone.
type C2PSA struct {
	cv1, cv2 *Conv
	blocks   []*PSABlock
	hidden   int
}

// NewC2PSA builds the block with n PSA layers (hidden width c1/2).
func NewC2PSA(r *rng.RNG, c1 int, n int) *C2PSA {
	c := c1 / 2
	if c < 1 {
		c = 1
	}
	blk := &C2PSA{
		cv1:    NewConv(r.Split("cv1"), c1, 2*c, 1, 1, ActSiLU),
		cv2:    NewConv(r.Split("cv2"), 2*c, c1, 1, 1, ActSiLU),
		hidden: c,
	}
	for i := 0; i < n; i++ {
		blk.blocks = append(blk.blocks, NewPSABlock(r.SplitN("psa", i), c))
	}
	return blk
}

// Name implements Module.
func (b *C2PSA) Name() string { return fmt.Sprintf("c2psa_n%d", len(b.blocks)) }

// Forward implements Module.
func (b *C2PSA) Forward(xs []*tensor.Tensor) *tensor.Tensor {
	y := b.cv1.Forward(xs)
	c := b.hidden
	h, w := y.Shape[1], y.Shape[2]
	a := tensor.FromSlice(y.Data[:c*h*w], c, h, w)
	v := tensor.FromSlice(y.Data[c*h*w:], c, h, w)
	for _, blk := range b.blocks {
		v = blk.Forward([]*tensor.Tensor{v})
	}
	return b.cv2.Forward([]*tensor.Tensor{tensor.ConcatChannels(a, v)})
}

// Lower implements Module.
func (b *C2PSA) Lower(pb *planBuilder, ins []planVal) planVal {
	y := b.cv1.Lower(pb, ins)
	c := b.hidden
	_, h, w := pb.chw(y)
	a := pb.view(y, 0, c, h, w)
	v := pb.view(y, c*h*w, c, h, w)
	for _, blk := range b.blocks {
		v = blk.Lower(pb, []planVal{v})
	}
	cat := pb.val(2*c, h, w)
	pb.emit(&concatOp{dst: cat, srcs: []planVal{a, v}})
	return b.cv2.Lower(pb, []planVal{cat})
}

// Cost implements Module.
func (b *C2PSA) Cost(in []Shape) (int64, Shape) {
	f, s := b.cv1.Cost(in)
	cur := Shape{C: b.hidden, H: s.H, W: s.W}
	total := f
	for _, blk := range b.blocks {
		fb, sb := blk.Cost([]Shape{cur})
		total += fb
		cur = sb
	}
	f2, s2 := b.cv2.Cost([]Shape{{C: 2 * b.hidden, H: s.H, W: s.W}})
	return total + f2, s2
}
