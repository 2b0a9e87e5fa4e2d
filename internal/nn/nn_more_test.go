package nn

import (
	"testing"

	"ocularone/internal/rng"
	"ocularone/internal/tensor"
)

func TestC3ForwardAndCost(t *testing.T) {
	r := rng.New(20)
	blk := NewC3(r, 16, 32, 2, true, 0.5)
	x := input(16, 8, 8)
	y := blk.Forward([]*tensor.Tensor{x})
	if y.Shape[0] != 32 || y.Shape[1] != 8 || y.Shape[2] != 8 {
		t.Fatalf("c3 shape %v", y.Shape)
	}
	fl, s := blk.Cost([]Shape{{C: 16, H: 8, W: 8}})
	if s != (Shape{32, 8, 8}) || fl <= 0 {
		t.Fatalf("c3 cost %d %v", fl, s)
	}
	if blk.Name() != "c3_n2" {
		t.Fatalf("c3 name %q", blk.Name())
	}
}

func TestDetectCostShapes(t *testing.T) {
	r := rng.New(21)
	ch := []int{32, 64, 128}
	d := NewDetect(r, 1, ch)
	fl, out := d.Cost([]Shape{{32, 8, 8}, {64, 4, 4}, {128, 2, 2}})
	if fl <= 0 {
		t.Fatal("detect cost zero")
	}
	anchors := 64 + 16 + 4
	if out.C != 4*RegMax+1 || out.W != anchors {
		t.Fatalf("detect cost shape %v", out)
	}
}

func TestDetect11ForwardLevel(t *testing.T) {
	r := rng.New(22)
	d := NewDetect11(r, 1, []int{32, 64, 128})
	lv := d.ForwardLevel(0, input(32, 8, 8))
	if lv.Shape[0] != 4*RegMax+1 || lv.Shape[1] != 8 || lv.Shape[2] != 8 {
		t.Fatalf("level output %v", lv.Shape)
	}
	if d.Name() != "detect_v11" {
		t.Fatalf("name %q", d.Name())
	}
	v8 := NewDetect(r, 1, []int{32})
	if v8.Name() != "detect_v8" {
		t.Fatalf("name %q", v8.Name())
	}
}

func TestDetectForwardPanicsOnLevelMismatch(t *testing.T) {
	r := rng.New(23)
	d := NewDetect(r, 1, []int{32, 64, 128})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on wrong level count")
		}
	}()
	d.Forward([]*tensor.Tensor{input(32, 8, 8)})
}

func TestNetworkOutputsSelection(t *testing.T) {
	r := rng.New(24)
	nodes := []Node{
		{From: []int{-1}, Module: NewConv(r.Split("a"), 3, 8, 3, 1, ActReLU)},
		{From: []int{-1}, Module: NewConv(r.Split("b"), 8, 16, 3, 2, ActReLU)},
	}
	net := &Network{Nodes: nodes, Outputs: []int{0, 1}}
	outs := net.Forward(input(3, 8, 8))
	if len(outs) != 2 {
		t.Fatalf("outputs %d", len(outs))
	}
	if outs[0].Shape[0] != 8 || outs[1].Shape[0] != 16 {
		t.Fatalf("output channels %v %v", outs[0].Shape, outs[1].Shape)
	}
	fl, shapes := net.Cost(Shape{3, 8, 8})
	if len(shapes) != 2 || fl <= 0 {
		t.Fatalf("cost outputs %v", shapes)
	}
}

func TestNetworkPanicsOnForwardReference(t *testing.T) {
	r := rng.New(25)
	nodes := []Node{
		{From: []int{1}, Module: NewConv(r, 3, 8, 3, 1, ActReLU)}, // references later node
	}
	net := &Network{Nodes: nodes}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on forward reference")
		}
	}()
	net.Forward(input(3, 4, 4))
}

func TestConvActivationVariants(t *testing.T) {
	x := input(2, 4, 4)
	relu := NewConv(rng.New(26), 2, 4, 1, 1, ActReLU).Forward([]*tensor.Tensor{x})
	for _, v := range relu.Data {
		if v < 0 {
			t.Fatal("ReLU output negative")
		}
	}
	sig := NewConv(rng.New(27), 2, 4, 1, 1, ActSigmoid).Forward([]*tensor.Tensor{x})
	for _, v := range sig.Data {
		if v < 0 || v > 1 {
			t.Fatal("sigmoid output out of range")
		}
	}
	none := NewConv(rng.New(28), 2, 4, 1, 1, ActNone)
	_ = none.Forward([]*tensor.Tensor{x}) // must not panic
}

func TestConvPanicsOnBadChannels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewConv(rng.New(29), 0, 4, 3, 1, ActSiLU)
}

func TestAttentionHeadCounts(t *testing.T) {
	// dim < 64 → single head; dim = 128 → two heads.
	a1 := NewAttention(rng.New(30), 32)
	if a1.numHeads != 1 {
		t.Fatalf("heads %d for dim 32", a1.numHeads)
	}
	a2 := NewAttention(rng.New(31), 128)
	if a2.numHeads != 2 {
		t.Fatalf("heads %d for dim 128", a2.numHeads)
	}
	// Forward consistency at dim 128.
	x := input(128, 4, 4)
	y := a2.Forward([]*tensor.Tensor{x})
	if !sameShape(y.Shape, []int{128, 4, 4}) {
		t.Fatalf("attention shape %v", y.Shape)
	}
}

func TestPSABlockResidualShape(t *testing.T) {
	p := NewPSABlock(rng.New(32), 64)
	x := input(64, 4, 4)
	y := p.Forward([]*tensor.Tensor{x})
	if !sameShape(y.Shape, []int{64, 4, 4}) {
		t.Fatalf("psablock shape %v", y.Shape)
	}
	fl, s := p.Cost([]Shape{{64, 4, 4}})
	if fl <= 0 || s != (Shape{64, 4, 4}) {
		t.Fatalf("psablock cost %d %v", fl, s)
	}
	if paramsOf(p) <= 0 {
		t.Fatal("psablock params")
	}
}

func TestShapeHelpers(t *testing.T) {
	s := Shape{C: 3, H: 4, W: 5}
	if s.Volume() != 60 {
		t.Fatalf("volume %d", s.Volume())
	}
	if s.String() != "[3,4,5]" {
		t.Fatalf("string %q", s.String())
	}
}

func TestNMSEmptyAndSingle(t *testing.T) {
	if out := NMS(nil, 0.5); len(out) != 0 {
		t.Fatal("NMS of empty input")
	}
	one := []Detection{{X0: 0, Y0: 0, X1: 10, Y1: 10, Score: 0.5}}
	if out := NMS(one, 0.5); len(out) != 1 {
		t.Fatal("NMS dropped the only box")
	}
}

func TestDecodeLevelNoDetections(t *testing.T) {
	raw := tensor.New(4*RegMax+1, 4, 4)
	// All class logits at zero → sigmoid 0.5; threshold 0.9 rejects all.
	if dets := DecodeLevel(raw, 1, 8, 0.9); len(dets) != 0 {
		t.Fatalf("unexpected detections: %d", len(dets))
	}
}
