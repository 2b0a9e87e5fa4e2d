package nn

import (
	"fmt"

	"ocularone/internal/rng"
	"ocularone/internal/tensor"
)

// RegMax is the number of DFL distribution bins per box side, the
// Ultralytics default.
const RegMax = 16

// Detect is the anchor-free YOLO detect head over three feature levels
// (strides 8, 16, 32). The v11 variant uses a lighter depthwise
// classification branch than v8.
type Detect struct {
	nc      int
	strides []int
	box     [][]*Conv // per level: conv, conv, conv2d
	cls     [][]*Conv
	v11     bool
}

// NewDetect builds the v8-style detect head for levels with the given
// channel counts.
func NewDetect(r *rng.RNG, nc int, ch []int) *Detect {
	return newDetect(r, nc, ch, false)
}

// NewDetect11 builds the v11-style head (depthwise cls branch).
func NewDetect11(r *rng.RNG, nc int, ch []int) *Detect {
	return newDetect(r, nc, ch, true)
}

func newDetect(r *rng.RNG, nc int, ch []int, v11 bool) *Detect {
	if len(ch) == 0 {
		panic("nn: detect head with no levels")
	}
	c2 := maxInt(16, ch[0]/4, RegMax*4)
	c3 := maxInt(ch[0], minInt(nc, 100))
	d := &Detect{nc: nc, v11: v11, strides: []int{8, 16, 32}}
	for li, c := range ch {
		lr := r.SplitN("level", li)
		d.box = append(d.box, []*Conv{
			NewConv(lr.Split("box1"), c, c2, 3, 1, ActSiLU),
			NewConv(lr.Split("box2"), c2, c2, 3, 1, ActSiLU),
			NewConv2d(lr.Split("box3"), c2, 4*RegMax, 1),
		})
		if v11 {
			d.cls = append(d.cls, []*Conv{
				NewConvDW(lr.Split("clsdw1"), c, 3, 1, ActSiLU),
				NewConv(lr.Split("cls1"), c, c3, 1, 1, ActSiLU),
				NewConvDW(lr.Split("clsdw2"), c3, 3, 1, ActSiLU),
				NewConv(lr.Split("cls2"), c3, c3, 1, 1, ActSiLU),
				NewConv2d(lr.Split("cls3"), c3, nc, 1),
			})
		} else {
			d.cls = append(d.cls, []*Conv{
				NewConv(lr.Split("cls1"), c, c3, 3, 1, ActSiLU),
				NewConv(lr.Split("cls2"), c3, c3, 3, 1, ActSiLU),
				NewConv2d(lr.Split("cls3"), c3, nc, 1),
			})
		}
	}
	return d
}

// Name implements Module.
func (d *Detect) Name() string {
	if d.v11 {
		return "detect_v11"
	}
	return "detect_v8"
}

// ForwardLevel runs one pyramid level, returning the raw prediction map
// [4*RegMax+nc, H, W].
func (d *Detect) ForwardLevel(li int, x *tensor.Tensor) *tensor.Tensor {
	cur := x
	for _, c := range d.box[li] {
		cur = c.Forward([]*tensor.Tensor{cur})
	}
	boxOut := cur
	cur = x
	for _, c := range d.cls[li] {
		cur = c.Forward([]*tensor.Tensor{cur})
	}
	return tensor.ConcatChannels(boxOut, cur)
}

// Forward implements Module: it runs every level and concatenates the
// flattened predictions into [4*RegMax+nc, ΣHᵢWᵢ].
func (d *Detect) Forward(xs []*tensor.Tensor) *tensor.Tensor {
	if len(xs) != len(d.box) {
		panic(fmt.Sprintf("nn: detect head got %d inputs, want %d", len(xs), len(d.box)))
	}
	rows := 4*RegMax + d.nc
	total := 0
	levels := make([]*tensor.Tensor, len(xs))
	for li, x := range xs {
		levels[li] = d.ForwardLevel(li, x)
		total += x.Shape[1] * x.Shape[2]
	}
	out := tensor.New(rows, total)
	off := 0
	for _, lv := range levels {
		n := lv.Shape[1] * lv.Shape[2]
		for r := 0; r < rows; r++ {
			copy(out.Data[r*total+off:r*total+off+n], lv.Data[r*n:(r+1)*n])
		}
		off += n
	}
	return out
}

// Lower implements Module: each level's box and cls conv chains lower
// to fused conv ops, then one assembly op flattens every level into
// the [4*RegMax+nc, Σanchors] prediction map with the interpreter's
// exact copy pattern.
func (d *Detect) Lower(pb *planBuilder, ins []planVal) planVal {
	if len(ins) != len(d.box) {
		panic(fmt.Sprintf("nn: detect head got %d inputs, want %d", len(ins), len(d.box)))
	}
	rows := 4*RegMax + d.nc
	op := &detectOp{d: d}
	chain := func(convs []*Conv, in planVal) planVal {
		cur := in
		for _, c := range convs {
			cur = c.Lower(pb, []planVal{cur})
		}
		return cur
	}
	for li, in := range ins {
		box := chain(d.box[li], in)
		cls := chain(d.cls[li], in)
		_, h, w := pb.chw(box)
		op.boxes = append(op.boxes, box)
		op.clss = append(op.clss, cls)
		op.planes = append(op.planes, h*w)
		op.total += h * w
	}
	out := pb.val(rows, op.total)
	op.out = out
	pb.emit(op)
	return out
}

// Cost implements Module.
func (d *Detect) Cost(in []Shape) (int64, Shape) {
	var total int64
	anchors := 0
	for li, s := range in {
		cur := s
		for _, c := range d.box[li] {
			f, o := c.Cost([]Shape{cur})
			total += f
			cur = o
		}
		cur = s
		for _, c := range d.cls[li] {
			f, o := c.Cost([]Shape{cur})
			total += f
			cur = o
		}
		anchors += s.H * s.W
	}
	return total, Shape{C: 4*RegMax + d.nc, H: 1, W: anchors}
}

func maxInt(vs ...int) int {
	m := vs[0]
	for _, v := range vs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
