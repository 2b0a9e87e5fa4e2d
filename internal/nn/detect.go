package nn

import (
	"fmt"
	"math"
	"sort"

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

// Detection is one decoded box prediction in input-pixel coordinates.
type Detection struct {
	X0, Y0, X1, Y1 float64
	Score          float64
	Class          int
}

// DecodeLevel converts one raw prediction map into detections above
// confThr. The DFL box distribution is reduced to its expectation, then
// offsets are scaled by the level stride — the standard anchor-free
// decode.
func DecodeLevel(raw *tensor.Tensor, nc, stride int, confThr float64) []Detection {
	h, w := raw.Shape[1], raw.Shape[2]
	plane := h * w
	var out []Detection
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			pos := y*w + x
			// Class scores (sigmoid).
			bestC, bestS := -1, confThr
			for c := 0; c < nc; c++ {
				v := raw.Data[(4*RegMax+c)*plane+pos]
				s := 1 / (1 + math.Exp(-float64(v)))
				if s > bestS {
					bestS, bestC = s, c
				}
			}
			if bestC < 0 {
				continue
			}
			// DFL expectation per side (l, t, r, b).
			var sides [4]float64
			for side := 0; side < 4; side++ {
				var mx float32 = -3.4e38
				for b := 0; b < RegMax; b++ {
					if v := raw.Data[(side*RegMax+b)*plane+pos]; v > mx {
						mx = v
					}
				}
				var sum, exp float64
				for b := 0; b < RegMax; b++ {
					e := math.Exp(float64(raw.Data[(side*RegMax+b)*plane+pos] - mx))
					sum += e
					exp += e * float64(b)
				}
				sides[side] = exp / sum
			}
			cx, cy := float64(x)+0.5, float64(y)+0.5
			out = append(out, Detection{
				X0:    (cx - sides[0]) * float64(stride),
				Y0:    (cy - sides[1]) * float64(stride),
				X1:    (cx + sides[2]) * float64(stride),
				Y1:    (cy + sides[3]) * float64(stride),
				Score: bestS, Class: bestC,
			})
		}
	}
	return out
}

// NMS performs greedy non-maximum suppression at the given IoU threshold,
// keeping the highest-scoring boxes.
func NMS(dets []Detection, iouThr float64) []Detection {
	sort.Slice(dets, func(a, b int) bool { return dets[a].Score > dets[b].Score })
	var keep []Detection
	for _, d := range dets {
		ok := true
		for _, k := range keep {
			if k.Class == d.Class && detIoU(k, d) > iouThr {
				ok = false
				break
			}
		}
		if ok {
			keep = append(keep, d)
		}
	}
	return keep
}

func detIoU(a, b Detection) float64 {
	ix0, iy0 := math.Max(a.X0, b.X0), math.Max(a.Y0, b.Y0)
	ix1, iy1 := math.Min(a.X1, b.X1), math.Min(a.Y1, b.Y1)
	iw, ih := ix1-ix0, iy1-iy0
	if iw <= 0 || ih <= 0 {
		return 0
	}
	inter := iw * ih
	areaA := (a.X1 - a.X0) * (a.Y1 - a.Y0)
	areaB := (b.X1 - b.X0) * (b.Y1 - b.Y0)
	return inter / (areaA + areaB - inter)
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
