package nn

import (
	"math"
	"slices"
	"sort"
	"testing"

	"ocularone/internal/rng"
	"ocularone/internal/tensor"
)

func input(c, h, w int) *tensor.Tensor {
	x := tensor.New(c, h, w)
	for i := range x.Data {
		x.Data[i] = float32((i*17)%13)/13 - 0.5
	}
	return x
}

func TestConvForwardShapeAndCost(t *testing.T) {
	r := rng.New(1)
	c := NewConv(r, 3, 16, 3, 2, ActSiLU)
	x := input(3, 32, 32)
	y := c.Forward([]*tensor.Tensor{x})
	if y.Shape[0] != 16 || y.Shape[1] != 16 || y.Shape[2] != 16 {
		t.Fatalf("conv output shape %v", y.Shape)
	}
	flops, out := c.Cost([]Shape{{C: 3, H: 32, W: 32}})
	if out != (Shape{16, 16, 16}) {
		t.Fatalf("cost shape %v", out)
	}
	// 2 * OH*OW*OutC*InC*K*K = 2*16*16*16*3*9
	want := int64(2 * 16 * 16 * 16 * 3 * 9)
	if flops != want {
		t.Fatalf("conv flops %d, want %d", flops, want)
	}
}

func TestConvParamsConvention(t *testing.T) {
	r := rng.New(2)
	// Conv+BN: weights + 2*outC; Conv2d: weights + bias.
	c := NewConv(r, 8, 16, 3, 1, ActSiLU)
	if got, want := c.Params(), int64(16*8*9+2*16); got != want {
		t.Fatalf("conv-bn params %d, want %d", got, want)
	}
	c2 := NewConv2d(r, 8, 16, 1)
	if got, want := c2.Params(), int64(16*8+16); got != want {
		t.Fatalf("conv2d params %d, want %d", got, want)
	}
	dw := NewConvDW(r, 16, 3, 1, ActSiLU)
	if got, want := dw.Params(), int64(16*9+2*16); got != want {
		t.Fatalf("depthwise params %d, want %d", got, want)
	}
}

// TestConvParamsMatchStorage pins Conv.Params, which counts from the
// spec, to what a seeded conv stores: weight plus bias or BN affine
// pair, for every conv of each composite. The same composites built
// architecture-only hold no slice and count the same parameters.
func TestConvParamsMatchStorage(t *testing.T) {
	ch := []int{16, 32, 64}
	builds := map[string]func(r *rng.RNG) ConvWalker{
		"c2f":        func(r *rng.RNG) ConvWalker { return NewC2f(r, 16, 32, 2, true) },
		"c3k2":       func(r *rng.RNG) ConvWalker { return NewC3k2(r, 16, 32, 2, false, 0.5) },
		"c3k2-c3k":   func(r *rng.RNG) ConvWalker { return NewC3k2(r, 16, 32, 2, true, 0.5) },
		"sppf":       func(r *rng.RNG) ConvWalker { return NewSPPF(r, 32, 32, 5) },
		"c2psa":      func(r *rng.RNG) ConvWalker { return NewC2PSA(r, 128, 1) },
		"basic":      func(r *rng.RNG) ConvWalker { return NewBasicBlock(r, 16, 16, 1) },
		"basic-down": func(r *rng.RNG) ConvWalker { return NewBasicBlock(r, 16, 32, 2) },
		"detect":     func(r *rng.RNG) ConvWalker { return NewDetect(r, 3, ch) },
		"detect11":   func(r *rng.RNG) ConvWalker { return NewDetect11(r, 3, ch) },
	}
	for name, build := range builds {
		var seeded, bare []int64
		build(rng.New(3)).EachConv(func(c *Conv) {
			n := int64(len(c.weight.Data))
			if c.useBias {
				n += int64(len(c.bias.Data))
			} else {
				n += int64(len(c.gamma) + len(c.beta))
			}
			if n != c.Params() {
				t.Errorf("%s %s: stores %d parameters, Params %d", name, c.label, n, c.Params())
			}
			seeded = append(seeded, c.Params())
		})
		build(nil).EachConv(func(c *Conv) {
			if c.weight != nil || c.bias != nil || c.gamma != nil || c.beta != nil || c.mean != nil || c.varnc != nil {
				t.Errorf("%s %s: architecture-only conv holds storage", name, c.label)
			}
			bare = append(bare, c.Params())
		})
		if len(seeded) == 0 || !slices.Equal(seeded, bare) {
			t.Errorf("%s: seeded conv params %v, architecture-only %v", name, seeded, bare)
		}
	}
}

func TestConvDeterministicInit(t *testing.T) {
	a := NewConv(rng.New(7), 3, 8, 3, 1, ActSiLU)
	b := NewConv(rng.New(7), 3, 8, 3, 1, ActSiLU)
	x := input(3, 8, 8)
	ya := a.Forward([]*tensor.Tensor{x})
	yb := b.Forward([]*tensor.Tensor{x})
	if !ya.Equal(yb, 0) {
		t.Fatal("same-seed convs differ")
	}
}

func TestBottleneckShortcut(t *testing.T) {
	r := rng.New(3)
	b := NewBottleneck(r, 8, 8, true, 1.0)
	x := input(8, 8, 8)
	y := b.Forward([]*tensor.Tensor{x})
	if !sameShape(y.Shape, []int{8, 8, 8}) {
		t.Fatalf("bottleneck shape %v", y.Shape)
	}
	// Channel-changing bottleneck must not apply the shortcut.
	b2 := NewBottleneck(r, 8, 16, true, 1.0)
	y2 := b2.Forward([]*tensor.Tensor{x})
	if y2.Shape[0] != 16 {
		t.Fatalf("bottleneck c2 shape %v", y2.Shape)
	}
}

func sameShape(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestC2fForwardAndCostAgree(t *testing.T) {
	r := rng.New(4)
	blk := NewC2f(r, 16, 32, 2, true)
	x := input(16, 8, 8)
	y := blk.Forward([]*tensor.Tensor{x})
	_, cs := blk.Cost([]Shape{{C: 16, H: 8, W: 8}})
	if y.Shape[0] != cs.C || y.Shape[1] != cs.H || y.Shape[2] != cs.W {
		t.Fatalf("forward %v vs cost %v", y.Shape, cs)
	}
}

func TestC3k2Variants(t *testing.T) {
	r := rng.New(5)
	shallow := NewC3k2(r.Split("a"), 16, 32, 2, false, 0.5)
	deep := NewC3k2(r.Split("b"), 16, 32, 2, true, 0.5)
	if paramsOf(deep) <= paramsOf(shallow) {
		t.Fatalf("c3k variant (%d) not larger than bottleneck variant (%d)",
			paramsOf(deep), paramsOf(shallow))
	}
	x := input(16, 8, 8)
	for _, blk := range []*C3k2{shallow, deep} {
		y := blk.Forward([]*tensor.Tensor{x})
		if y.Shape[0] != 32 {
			t.Fatalf("c3k2 out channels %d", y.Shape[0])
		}
	}
}

func TestSPPFPreservesSpatial(t *testing.T) {
	r := rng.New(6)
	blk := NewSPPF(r, 32, 32, 5)
	x := input(32, 8, 8)
	y := blk.Forward([]*tensor.Tensor{x})
	if !sameShape(y.Shape, []int{32, 8, 8}) {
		t.Fatalf("sppf shape %v", y.Shape)
	}
	_, cs := blk.Cost([]Shape{{C: 32, H: 8, W: 8}})
	if cs != (Shape{32, 8, 8}) {
		t.Fatalf("sppf cost shape %v", cs)
	}
}

func TestAttentionShapePreserved(t *testing.T) {
	r := rng.New(7)
	a := NewAttention(r, 64)
	x := input(64, 6, 6)
	y := a.Forward([]*tensor.Tensor{x})
	if !sameShape(y.Shape, []int{64, 6, 6}) {
		t.Fatalf("attention shape %v", y.Shape)
	}
	fl, s := a.Cost([]Shape{{C: 64, H: 6, W: 6}})
	if s != (Shape{64, 6, 6}) || fl <= 0 {
		t.Fatalf("attention cost %d %v", fl, s)
	}
}

func TestC2PSA(t *testing.T) {
	r := rng.New(8)
	blk := NewC2PSA(r, 128, 1)
	x := input(128, 4, 4)
	y := blk.Forward([]*tensor.Tensor{x})
	if !sameShape(y.Shape, []int{128, 4, 4}) {
		t.Fatalf("c2psa shape %v", y.Shape)
	}
}

func TestBasicBlockResidual(t *testing.T) {
	r := rng.New(9)
	same := NewBasicBlock(r.Split("a"), 16, 16, 1)
	x := input(16, 8, 8)
	y := same.Forward([]*tensor.Tensor{x})
	if !sameShape(y.Shape, []int{16, 8, 8}) {
		t.Fatalf("basicblock shape %v", y.Shape)
	}
	// ReLU output is non-negative.
	for _, v := range y.Data {
		if v < 0 {
			t.Fatal("basicblock output negative after ReLU")
		}
	}
	down := NewBasicBlock(r.Split("b"), 16, 32, 2)
	y2 := down.Forward([]*tensor.Tensor{x})
	if !sameShape(y2.Shape, []int{32, 4, 4}) {
		t.Fatalf("downsampling basicblock shape %v", y2.Shape)
	}
}

func TestResNet18BackboneStages(t *testing.T) {
	r := rng.New(10)
	nodes, stages := ResNet18Backbone(r, nil)
	net := &Network{Name: "r18", Nodes: nodes, Outputs: stages[:]}
	outs := net.Forward(input(3, 64, 64))
	wantC := []int{64, 128, 256, 512}
	wantHW := []int{16, 8, 4, 2}
	for i, o := range outs {
		if o.Shape[0] != wantC[i] || o.Shape[1] != wantHW[i] {
			t.Fatalf("stage %d shape %v, want C=%d HW=%d", i, o.Shape, wantC[i], wantHW[i])
		}
	}
	// ResNet-18 backbone (no fc) is ~11.2M params.
	p := net.Params()
	if p < 10_500_000 || p > 12_000_000 {
		t.Fatalf("resnet18 params %d, want ≈11.2M", p)
	}
}

func TestNetworkGraphReferences(t *testing.T) {
	r := rng.New(11)
	// Diamond: conv → (branch a, branch b) → concat.
	nodes := []Node{
		{From: []int{-1}, Module: NewConv(r.Split("0"), 3, 8, 3, 1, ActSiLU)},
		{From: []int{-1}, Module: NewConv(r.Split("1"), 8, 8, 3, 1, ActSiLU)},
		{From: []int{0}, Module: NewConv(r.Split("2"), 8, 8, 3, 1, ActSiLU)},
		{From: []int{1, 2}, Module: Concat{}},
	}
	net := &Network{Name: "diamond", Nodes: nodes}
	out := net.Forward(input(3, 8, 8))[0]
	if out.Shape[0] != 16 {
		t.Fatalf("diamond concat channels %d", out.Shape[0])
	}
	flops, shapes := net.Cost(Shape{C: 3, H: 8, W: 8})
	if flops <= 0 || shapes[0].C != 16 {
		t.Fatalf("diamond cost %d %v", flops, shapes)
	}
}

func TestDetectHeadOutputs(t *testing.T) {
	r := rng.New(12)
	ch := []int{32, 64, 128}
	d := NewDetect(r, 1, ch)
	xs := []*tensor.Tensor{input(32, 8, 8), input(64, 4, 4), input(128, 2, 2)}
	out := d.Forward(xs)
	anchors := 8*8 + 4*4 + 2*2
	if out.Shape[0] != 4*RegMax+1 || out.Shape[1] != anchors {
		t.Fatalf("detect output %v, want [%d %d]", out.Shape, 4*RegMax+1, anchors)
	}
}

func TestDetect11LighterThanV8(t *testing.T) {
	r := rng.New(13)
	ch := []int{64, 128, 256}
	v8 := NewDetect(r.Split("v8"), 80, ch)
	v11 := NewDetect11(r.Split("v11"), 80, ch)
	if paramsOf(v11) >= paramsOf(v8) {
		t.Fatalf("v11 head (%d) not lighter than v8 head (%d)", paramsOf(v11), paramsOf(v8))
	}
}

func TestDecodeLevelAndNMS(t *testing.T) {
	// Craft a raw map with one confident anchor.
	nc := 1
	h, w := 4, 4
	raw := tensor.New(4*RegMax+nc, h, w)
	pos := 1*w + 2 // anchor (2,1)
	// Class logit high at pos, low elsewhere.
	for i := 0; i < h*w; i++ {
		raw.Data[(4*RegMax)*h*w+i] = -10
	}
	raw.Data[(4*RegMax)*h*w+pos] = 8
	// DFL bins: put mass at bin 2 for all four sides → offsets of 2 cells.
	for side := 0; side < 4; side++ {
		raw.Data[(side*RegMax+2)*h*w+pos] = 10
	}
	dets := DecodeLevel(raw, nc, 8, 0.25)
	if len(dets) != 1 {
		t.Fatalf("decoded %d detections, want 1", len(dets))
	}
	d := dets[0]
	// Centre (2.5, 1.5) ± 2 cells at stride 8 → x:[4,36], y:[-4,28];
	// residual softmax mass in the other 15 bins shifts this slightly.
	if math.Abs(d.X0-4) > 0.2 || math.Abs(d.X1-36) > 0.2 {
		t.Fatalf("decoded box x [%v,%v], want ≈[4,36]", d.X0, d.X1)
	}
	if d.Score < 0.99 {
		t.Fatalf("decoded score %v", d.Score)
	}
	// NMS keeps one of two overlapping boxes.
	dup := []Detection{d, {X0: d.X0 + 1, Y0: d.Y0, X1: d.X1 + 1, Y1: d.Y1, Score: 0.5, Class: 0}}
	kept := NMS(dup, 0.5)
	if len(kept) != 1 || kept[0].Score < 0.99 {
		t.Fatalf("NMS kept %v", kept)
	}
	// Distant boxes both survive.
	far := []Detection{d, {X0: 500, Y0: 500, X1: 600, Y1: 600, Score: 0.5, Class: 0}}
	if len(NMS(far, 0.5)) != 2 {
		t.Fatal("NMS suppressed a distant box")
	}
}

// paramsOf reads a module's parameter count through a one-node Network,
// the only place a count is summed.
func paramsOf(m Module) int64 {
	return (&Network{Nodes: []Node{{From: []int{-1}, Module: m}}}).Params()
}

func TestNetworkParamsAdditive(t *testing.T) {
	r := rng.New(14)
	c1 := NewConv(r.Split("a"), 3, 8, 3, 1, ActSiLU)
	c2 := NewConv(r.Split("b"), 8, 16, 3, 1, ActSiLU)
	net := &Network{Nodes: []Node{
		{From: []int{-1}, Module: c1},
		{From: []int{-1}, Module: c2},
	}}
	if net.Params() != c1.Params()+c2.Params() {
		t.Fatal("network params not additive")
	}
	if net.SizeBytesFP16() != 2*net.Params() {
		t.Fatal("fp16 size wrong")
	}
}

func TestUpsampleConcatModules(t *testing.T) {
	u := Upsample{}
	x := input(4, 3, 3)
	y := u.Forward([]*tensor.Tensor{x})
	if !sameShape(y.Shape, []int{4, 6, 6}) {
		t.Fatalf("upsample shape %v", y.Shape)
	}
	c := Concat{}
	z := c.Forward([]*tensor.Tensor{x, x})
	if z.Shape[0] != 8 {
		t.Fatalf("concat channels %d", z.Shape[0])
	}
	if paramsOf(u) != 0 || paramsOf(c) != 0 {
		t.Fatal("parameterless modules report params")
	}
}

func TestMaxPoolModule(t *testing.T) {
	m := MaxPool{K: 3, Stride: 2, Pad: 1}
	x := input(4, 8, 8)
	y := m.Forward([]*tensor.Tensor{x})
	if !sameShape(y.Shape, []int{4, 4, 4}) {
		t.Fatalf("maxpool shape %v", y.Shape)
	}
	_, s := m.Cost([]Shape{{C: 4, H: 8, W: 8}})
	if s != (Shape{4, 4, 4}) {
		t.Fatalf("maxpool cost shape %v", s)
	}
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
