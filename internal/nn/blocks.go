package nn

import (
	"fmt"

	"ocularone/internal/rng"
	"ocularone/internal/tensor"
)

// Bottleneck is the standard YOLO residual bottleneck: two 3×3 Convs with
// an optional shortcut.
type Bottleneck struct {
	cv1, cv2 *Conv
	shortcut bool
}

// NewBottleneck builds a bottleneck with hidden width c2*e.
func NewBottleneck(r *rng.RNG, c1, c2 int, shortcut bool, e float64) *Bottleneck {
	ch := int(float64(c2) * e)
	if ch < 1 {
		ch = 1
	}
	return &Bottleneck{
		cv1:      NewConv(r.Split("cv1"), c1, ch, 3, 1, ActSiLU),
		cv2:      NewConv(r.Split("cv2"), ch, c2, 3, 1, ActSiLU),
		shortcut: shortcut && c1 == c2,
	}
}

// Name implements Module.
func (b *Bottleneck) Name() string { return "bottleneck" }

// Forward implements Module.
func (b *Bottleneck) Forward(xs []*tensor.Tensor) *tensor.Tensor {
	x := xs[0]
	y := b.cv2.Forward([]*tensor.Tensor{b.cv1.Forward(xs)})
	if b.shortcut {
		y.Add(x)
	}
	return y
}

// Lower implements Module: two fused convs plus an in-place residual
// add when the shortcut applies.
func (b *Bottleneck) Lower(pb *planBuilder, ins []planVal) planVal {
	mid := b.cv1.Lower(pb, ins)
	y := b.cv2.Lower(pb, []planVal{mid})
	if b.shortcut {
		pb.emit(&addOp{dst: y, src: ins[0]})
	}
	return y
}

// Cost implements Module.
func (b *Bottleneck) Cost(in []Shape) (int64, Shape) {
	f1, s1 := b.cv1.Cost(in)
	f2, s2 := b.cv2.Cost([]Shape{s1})
	extra := int64(0)
	if b.shortcut {
		extra = int64(s2.Volume())
	}
	return f1 + f2 + extra, s2
}

// C2f is YOLOv8's cross-stage-partial block: split, n bottlenecks, concat
// everything, fuse with a 1×1 Conv.
type C2f struct {
	cv1, cv2 *Conv
	ms       []*Bottleneck
	hidden   int
}

// NewC2f builds a C2f block with n bottlenecks.
func NewC2f(r *rng.RNG, c1, c2, n int, shortcut bool) *C2f {
	c := c2 / 2
	if c < 1 {
		c = 1
	}
	blk := &C2f{
		cv1:    NewConv(r.Split("cv1"), c1, 2*c, 1, 1, ActSiLU),
		cv2:    NewConv(r.Split("cv2"), (2+n)*c, c2, 1, 1, ActSiLU),
		hidden: c,
	}
	for i := 0; i < n; i++ {
		blk.ms = append(blk.ms, NewBottleneck(r.SplitN("m", i), c, c, shortcut, 1.0))
	}
	return blk
}

// Name implements Module.
func (b *C2f) Name() string { return fmt.Sprintf("c2f_n%d", len(b.ms)) }

// Forward implements Module.
func (b *C2f) Forward(xs []*tensor.Tensor) *tensor.Tensor {
	y := b.cv1.Forward(xs)
	c := b.hidden
	h, w := y.Shape[1], y.Shape[2]
	y1 := tensor.FromSlice(y.Data[:c*h*w], c, h, w)
	y2 := tensor.FromSlice(y.Data[c*h*w:], c, h, w)
	parts := []*tensor.Tensor{y1, y2}
	cur := y2
	for _, m := range b.ms {
		cur = m.Forward([]*tensor.Tensor{cur})
		parts = append(parts, cur)
	}
	return b.cv2.Forward([]*tensor.Tensor{tensor.ConcatChannels(parts...)})
}

// Lower implements Module.
func (b *C2f) Lower(pb *planBuilder, ins []planVal) planVal {
	return cspLower(pb, b.cv1, b.cv2, b.hidden, len(b.ms), ins, func(i int, cur planVal) planVal {
		return b.ms[i].Lower(pb, []planVal{cur})
	})
}

// cspLower is the shared lowering of the C2f/C3k2 family: cv1, a
// zero-copy channel split (two arena views), a chain of n inner
// modules over the second half, a concat of all parts, cv2. step
// lowers inner module i on the current value.
func cspLower(pb *planBuilder, cv1, cv2 *Conv, hidden, n int, ins []planVal,
	step func(i int, cur planVal) planVal) planVal {
	y := cv1.Lower(pb, ins)
	_, h, w := pb.chw(y)
	y1 := pb.view(y, 0, hidden, h, w)
	y2 := pb.view(y, hidden*h*w, hidden, h, w)
	parts := []planVal{y1, y2}
	cur := y2
	for i := 0; i < n; i++ {
		cur = step(i, cur)
		parts = append(parts, cur)
	}
	cat := pb.val((2+n)*hidden, h, w)
	pb.emit(&concatOp{dst: cat, srcs: parts})
	return cv2.Lower(pb, []planVal{cat})
}

// Cost implements Module.
func (b *C2f) Cost(in []Shape) (int64, Shape) {
	f, s := b.cv1.Cost(in)
	half := Shape{C: b.hidden, H: s.H, W: s.W}
	cur := half
	total := f
	for _, m := range b.ms {
		fm, sm := m.Cost([]Shape{cur})
		total += fm
		cur = sm
	}
	catC := (2 + len(b.ms)) * b.hidden
	f2, s2 := b.cv2.Cost([]Shape{{C: catC, H: s.H, W: s.W}})
	return total + f2, s2
}

// C3 is the YOLOv5-style CSP block used inside C3k.
type C3 struct {
	cv1, cv2, cv3 *Conv
	ms            []*Bottleneck
}

// NewC3 builds a C3 block with n bottlenecks and hidden ratio e.
func NewC3(r *rng.RNG, c1, c2, n int, shortcut bool, e float64) *C3 {
	ch := int(float64(c2) * e)
	if ch < 1 {
		ch = 1
	}
	blk := &C3{
		cv1: NewConv(r.Split("cv1"), c1, ch, 1, 1, ActSiLU),
		cv2: NewConv(r.Split("cv2"), c1, ch, 1, 1, ActSiLU),
		cv3: NewConv(r.Split("cv3"), 2*ch, c2, 1, 1, ActSiLU),
	}
	for i := 0; i < n; i++ {
		blk.ms = append(blk.ms, NewBottleneck(r.SplitN("m", i), ch, ch, shortcut, 1.0))
	}
	return blk
}

// Name implements Module.
func (b *C3) Name() string { return fmt.Sprintf("c3_n%d", len(b.ms)) }

// Forward implements Module.
func (b *C3) Forward(xs []*tensor.Tensor) *tensor.Tensor {
	y1 := b.cv1.Forward(xs)
	for _, m := range b.ms {
		y1 = m.Forward([]*tensor.Tensor{y1})
	}
	y2 := b.cv2.Forward(xs)
	return b.cv3.Forward([]*tensor.Tensor{tensor.ConcatChannels(y1, y2)})
}

// Lower implements Module.
func (b *C3) Lower(pb *planBuilder, ins []planVal) planVal {
	y1 := b.cv1.Lower(pb, ins)
	for _, m := range b.ms {
		y1 = m.Lower(pb, []planVal{y1})
	}
	y2 := b.cv2.Lower(pb, ins)
	c1, h, w := pb.chw(y1)
	c2, _, _ := pb.chw(y2)
	cat := pb.val(c1+c2, h, w)
	pb.emit(&concatOp{dst: cat, srcs: []planVal{y1, y2}})
	return b.cv3.Lower(pb, []planVal{cat})
}

// Cost implements Module.
func (b *C3) Cost(in []Shape) (int64, Shape) {
	f1, s1 := b.cv1.Cost(in)
	total := f1
	cur := s1
	for _, m := range b.ms {
		fm, sm := m.Cost([]Shape{cur})
		total += fm
		cur = sm
	}
	f2, s2 := b.cv2.Cost(in)
	total += f2
	f3, s3 := b.cv3.Cost([]Shape{{C: cur.C + s2.C, H: s2.H, W: s2.W}})
	return total + f3, s3
}

// c3kOrBottleneck is the polymorphic inner module of C3k2.
type c3kOrBottleneck interface {
	Module
}

// C3k2 is YOLOv11's successor to C2f: the inner modules are either C3k
// blocks (deep variant) or plain bottlenecks.
type C3k2 struct {
	cv1, cv2 *Conv
	ms       []c3kOrBottleneck
	hidden   int
}

// NewC3k2 builds a C3k2 block. When c3k is true the inner modules are C3k
// blocks of depth 2; otherwise plain bottlenecks (matching Ultralytics).
func NewC3k2(r *rng.RNG, c1, c2, n int, c3k bool, e float64) *C3k2 {
	c := int(float64(c2) * e)
	if c < 1 {
		c = 1
	}
	blk := &C3k2{
		cv1:    NewConv(r.Split("cv1"), c1, 2*c, 1, 1, ActSiLU),
		cv2:    NewConv(r.Split("cv2"), (2+n)*c, c2, 1, 1, ActSiLU),
		hidden: c,
	}
	for i := 0; i < n; i++ {
		if c3k {
			blk.ms = append(blk.ms, NewC3(r.SplitN("c3k", i), c, c, 2, true, 0.5))
		} else {
			blk.ms = append(blk.ms, NewBottleneck(r.SplitN("m", i), c, c, true, 0.5))
		}
	}
	return blk
}

// Name implements Module.
func (b *C3k2) Name() string { return fmt.Sprintf("c3k2_n%d", len(b.ms)) }

// Forward implements Module.
func (b *C3k2) Forward(xs []*tensor.Tensor) *tensor.Tensor {
	y := b.cv1.Forward(xs)
	c := b.hidden
	h, w := y.Shape[1], y.Shape[2]
	y1 := tensor.FromSlice(y.Data[:c*h*w], c, h, w)
	y2 := tensor.FromSlice(y.Data[c*h*w:], c, h, w)
	parts := []*tensor.Tensor{y1, y2}
	cur := y2
	for _, m := range b.ms {
		cur = m.Forward([]*tensor.Tensor{cur})
		parts = append(parts, cur)
	}
	return b.cv2.Forward([]*tensor.Tensor{tensor.ConcatChannels(parts...)})
}

// Lower implements Module.
func (b *C3k2) Lower(pb *planBuilder, ins []planVal) planVal {
	return cspLower(pb, b.cv1, b.cv2, b.hidden, len(b.ms), ins, func(i int, cur planVal) planVal {
		return b.ms[i].Lower(pb, []planVal{cur})
	})
}

// Cost implements Module.
func (b *C3k2) Cost(in []Shape) (int64, Shape) {
	f, s := b.cv1.Cost(in)
	cur := Shape{C: b.hidden, H: s.H, W: s.W}
	total := f
	for _, m := range b.ms {
		fm, sm := m.Cost([]Shape{cur})
		total += fm
		cur = sm
	}
	catC := (2 + len(b.ms)) * b.hidden
	f2, s2 := b.cv2.Cost([]Shape{{C: catC, H: s.H, W: s.W}})
	return total + f2, s2
}

// SPPF is spatial pyramid pooling (fast): three chained 5×5 max pools
// concatenated with the input.
type SPPF struct {
	cv1, cv2 *Conv
	k        int
}

// NewSPPF builds the SPPF block with pooling kernel k.
func NewSPPF(r *rng.RNG, c1, c2, k int) *SPPF {
	ch := c1 / 2
	if ch < 1 {
		ch = 1
	}
	return &SPPF{
		cv1: NewConv(r.Split("cv1"), c1, ch, 1, 1, ActSiLU),
		cv2: NewConv(r.Split("cv2"), ch*4, c2, 1, 1, ActSiLU),
		k:   k,
	}
}

// Name implements Module.
func (b *SPPF) Name() string { return "sppf" }

// Forward implements Module.
func (b *SPPF) Forward(xs []*tensor.Tensor) *tensor.Tensor {
	x := b.cv1.Forward(xs)
	p1 := tensor.MaxPool2D(x, b.k, 1, b.k/2)
	p2 := tensor.MaxPool2D(p1, b.k, 1, b.k/2)
	p3 := tensor.MaxPool2D(p2, b.k, 1, b.k/2)
	return b.cv2.Forward([]*tensor.Tensor{tensor.ConcatChannels(x, p1, p2, p3)})
}

// Lower implements Module: the three chained pools write into their
// own arena slots; lifetime analysis frees them after the concat.
func (b *SPPF) Lower(pb *planBuilder, ins []planVal) planVal {
	x := b.cv1.Lower(pb, ins)
	c, h, w := pb.chw(x)
	pool := func(src planVal) planVal {
		return lowerMaxPool(pb, src, b.k, 1, b.k/2)
	}
	p1 := pool(x)
	p2 := pool(p1)
	p3 := pool(p2)
	cat := pb.val(4*c, h, w)
	pb.emit(&concatOp{dst: cat, srcs: []planVal{x, p1, p2, p3}})
	return b.cv2.Lower(pb, []planVal{cat})
}

// Cost implements Module.
func (b *SPPF) Cost(in []Shape) (int64, Shape) {
	f1, s1 := b.cv1.Cost(in)
	// Pooling cost: 3 pools × k² comparisons per output element.
	pool := 3 * int64(s1.Volume()) * int64(b.k*b.k)
	f2, s2 := b.cv2.Cost([]Shape{{C: s1.C * 4, H: s1.H, W: s1.W}})
	return f1 + pool + f2, s2
}

// Upsample doubles spatial resolution (nearest neighbour).
type Upsample struct{}

// Name implements Module.
func (Upsample) Name() string { return "upsample2x" }

// Forward implements Module.
func (Upsample) Forward(xs []*tensor.Tensor) *tensor.Tensor {
	return tensor.UpsampleNearest2x(xs[0])
}

// Lower implements Module.
func (u Upsample) Lower(pb *planBuilder, ins []planVal) planVal {
	c, h, w := pb.chw(ins[0])
	dst := pb.val(c, h*2, w*2)
	pb.emit(&upsampleOp{dst: dst, src: ins[0]})
	return dst
}

// Cost implements Module.
func (Upsample) Cost(in []Shape) (int64, Shape) {
	s := in[0]
	out := Shape{C: s.C, H: s.H * 2, W: s.W * 2}
	return int64(out.Volume()), out
}

// Concat merges activations along the channel axis.
type Concat struct{}

// Name implements Module.
func (Concat) Name() string { return "concat" }

// Forward implements Module.
func (Concat) Forward(xs []*tensor.Tensor) *tensor.Tensor {
	return tensor.ConcatChannels(xs...)
}

// Lower implements Module.
func (c Concat) Lower(pb *planBuilder, ins []planVal) planVal {
	total := 0
	var h, w int
	for i, v := range ins {
		ci, hi, wi := pb.chw(v)
		if i == 0 {
			h, w = hi, wi
		}
		total += ci
	}
	dst := pb.val(total, h, w)
	pb.emit(&concatOp{dst: dst, srcs: append([]planVal(nil), ins...)})
	return dst
}

// Cost implements Module.
func (Concat) Cost(in []Shape) (int64, Shape) {
	c := 0
	for _, s := range in {
		c += s.C
	}
	return 0, Shape{C: c, H: in[0].H, W: in[0].W}
}
