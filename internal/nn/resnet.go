package nn

import (
	"fmt"

	"ocularone/internal/rng"
	"ocularone/internal/tensor"
)

// BasicBlock is the ResNet-18/34 residual block: two 3×3 convolutions
// with an identity (or 1×1 projection) shortcut. It underlies both
// situational-awareness substrates in the paper — trt_pose and
// Monodepth2 use ResNet-18 encoders (Table 2).
type BasicBlock struct {
	cv1, cv2 *Conv
	down     *Conv // nil when the identity shortcut applies
}

// NewBasicBlock builds a block mapping c1 → c2 channels at the given
// stride, with a projection shortcut when shape changes.
func NewBasicBlock(r *rng.RNG, c1, c2, stride int) *BasicBlock {
	b := &BasicBlock{
		cv1: newConvFull(r.Split("cv1"), c1, c2, 3, stride, 1, 1, ActReLU, false),
		cv2: newConvFull(r.Split("cv2"), c2, c2, 3, 1, 1, 1, ActNone, false),
	}
	if stride != 1 || c1 != c2 {
		b.down = newConvFull(r.Split("down"), c1, c2, 1, stride, 0, 1, ActNone, false)
	}
	return b
}

// Name implements Module.
func (b *BasicBlock) Name() string { return "basicblock" }

// Forward implements Module.
func (b *BasicBlock) Forward(xs []*tensor.Tensor) *tensor.Tensor {
	x := xs[0]
	y := b.cv2.Forward([]*tensor.Tensor{b.cv1.Forward(xs)})
	if b.down != nil {
		y.Add(b.down.Forward(xs))
	} else {
		y.Add(x)
	}
	y.ReLU()
	return y
}

// Lower implements Module: the residual add and trailing ReLU fuse
// into one in-place op.
func (b *BasicBlock) Lower(pb *planBuilder, ins []planVal) planVal {
	mid := b.cv1.Lower(pb, ins)
	y := b.cv2.Lower(pb, []planVal{mid})
	if b.down != nil {
		d := b.down.Lower(pb, ins)
		pb.emit(&addOp{dst: y, src: d, relu: true})
	} else {
		pb.emit(&addOp{dst: y, src: ins[0], relu: true})
	}
	return y
}

// Cost implements Module.
func (b *BasicBlock) Cost(in []Shape) (int64, Shape) {
	f1, s1 := b.cv1.Cost(in)
	f2, s2 := b.cv2.Cost([]Shape{s1})
	total := f1 + f2 + int64(s2.Volume()) // residual add
	if b.down != nil {
		fd, _ := b.down.Cost(in)
		total += fd
	}
	return total, s2
}

// MaxPool is a pooling module for network graphs.
type MaxPool struct {
	K, Stride, Pad int
}

// Name implements Module.
func (m MaxPool) Name() string { return fmt.Sprintf("maxpool%d", m.K) }

// Forward implements Module.
func (m MaxPool) Forward(xs []*tensor.Tensor) *tensor.Tensor {
	return tensor.MaxPool2D(xs[0], m.K, m.Stride, m.Pad)
}

// Lower implements Module.
func (m MaxPool) Lower(pb *planBuilder, ins []planVal) planVal {
	return lowerMaxPool(pb, ins[0], m.K, m.Stride, m.Pad)
}

// Cost implements Module.
func (m MaxPool) Cost(in []Shape) (int64, Shape) {
	s := in[0]
	oh := (s.H+2*m.Pad-m.K)/m.Stride + 1
	ow := (s.W+2*m.Pad-m.K)/m.Stride + 1
	out := Shape{C: s.C, H: oh, W: ow}
	return int64(out.Volume()) * int64(m.K*m.K), out
}

// ResNet18Backbone appends the ResNet-18 feature extractor to nodes and
// returns the updated slice plus the indices of the four stage outputs
// (strides 4, 8, 16, 32) for decoder skip connections.
func ResNet18Backbone(r *rng.RNG, nodes []Node) ([]Node, [4]int) {
	add := func(from []int, m Module) int {
		nodes = append(nodes, Node{From: from, Module: m})
		return len(nodes) - 1
	}
	prev := []int{-1}
	add(prev, newConvFull(r.Split("stem"), 3, 64, 7, 2, 3, 1, ActReLU, false))
	add(prev, MaxPool{K: 3, Stride: 2, Pad: 1})
	var stages [4]int
	chans := []int{64, 128, 256, 512}
	for si, c := range chans {
		stride := 2
		if si == 0 {
			stride = 1
		}
		inC := 64
		if si > 0 {
			inC = chans[si-1]
		}
		add(prev, NewBasicBlock(r.SplitN("stage-a", si), inC, c, stride))
		stages[si] = add(prev, NewBasicBlock(r.SplitN("stage-b", si), c, c, 1))
	}
	return nodes, stages
}
