package nn

import (
	"fmt"
	"math"

	"ocularone/internal/rng"
	"ocularone/internal/tensor"
)

// Act selects the activation fused after a convolution.
type Act int

// Activation kinds.
const (
	ActNone Act = iota
	ActSiLU
	ActReLU
	ActSigmoid
)

// Conv is the Ultralytics "Conv" block: Conv2d (no bias) + BatchNorm +
// activation, with weights folded for inference.
//
// A Conv optionally carries a post-training-quantized twin of its
// weights: Calibrate records the input activation range seen on a
// calibration stream, Quantize snapshots per-channel int8 weights, and
// the int8On switch (set by Network.ForwardQuantInterp through setInt8)
// routes Forward through the int8 kernels. The fp32 path is never
// mutated — switching int8On off restores bit-identical fp32
// behaviour.
type Conv struct {
	label   string
	spec    tensor.ConvSpec
	weight  *tensor.Tensor
	gamma   []float32
	beta    []float32
	mean    []float32
	varnc   []float32
	act     Act
	useBias bool
	bias    *tensor.Tensor

	// Quantization state (see quant.go).
	calib   *calibState     // non-nil while a calibration pass observes inputs
	inScale float32         // calibrated input activation scale (absmax/127)
	qw      *tensor.QTensor // per-channel int8 weights, set by Quantize
	int8On  bool            // route Forward through the int8 kernels
}

// NewConv builds a Conv-BN-activation block with He-initialised weights
// drawn from r (deterministic per seed). A nil r — here and in every
// constructor of this package, which hand their convs r.Split children —
// builds the architecture only: costable, not runnable. Shapes, Params
// and Cost are those of the seeded network, but no weight, bias or BN
// slice is allocated and nothing is drawn.
func NewConv(r *rng.RNG, inC, outC, k, stride int, act Act) *Conv {
	return newConvFull(r, inC, outC, k, stride, k/2, 1, act, false)
}

// NewConvDW builds a depthwise Conv block (groups = channels).
func NewConvDW(r *rng.RNG, c, k, stride int, act Act) *Conv {
	return newConvFull(r, c, c, k, stride, k/2, c, act, false)
}

// NewConv2d builds a raw Conv2d with bias and no BN/activation — the
// final prediction layers of detect heads.
func NewConv2d(r *rng.RNG, inC, outC, k int) *Conv {
	return newConvFull(r, inC, outC, k, 1, k/2, 1, ActNone, true)
}

func newConvFull(r *rng.RNG, inC, outC, k, stride, pad, groups int, act Act, bias bool) *Conv {
	if inC <= 0 || outC <= 0 {
		panic(fmt.Sprintf("nn: conv with channels %d→%d", inC, outC))
	}
	spec := tensor.ConvSpec{
		InC: inC, OutC: outC, KH: k, KW: k,
		StrideH: stride, StrideW: stride,
		PadH: pad, PadW: pad, Groups: groups,
	}
	c := &Conv{
		label:   fmt.Sprintf("conv%dx%d_%d_%d", k, k, inC, outC),
		spec:    spec,
		act:     act,
		useBias: bias,
	}
	if r == nil {
		return c
	}
	c.weight = tensor.New(outC, inC/groups, k, k)
	std := math.Sqrt(2 / float64(inC/groups*k*k))
	for i := range c.weight.Data {
		c.weight.Data[i] = float32(r.NormRange(0, std))
	}
	if bias {
		c.bias = tensor.New(outC)
		return c
	}
	c.gamma = make([]float32, outC)
	c.beta = make([]float32, outC)
	c.mean = make([]float32, outC)
	c.varnc = make([]float32, outC)
	for i := 0; i < outC; i++ {
		c.gamma[i] = 1
		c.varnc[i] = 1
		// Small random shift keeps activations non-degenerate.
		c.beta[i] = float32(r.NormRange(0, 0.02))
	}
	return c
}

// Name implements Module.
func (c *Conv) Name() string { return c.label }

// Forward implements Module.
func (c *Conv) Forward(xs []*tensor.Tensor) *tensor.Tensor {
	x := xs[0]
	if c.calib != nil {
		c.calib.observe(x)
	}
	var out *tensor.Tensor
	if c.int8On && c.qw != nil {
		// Only BN-folded convs quantize (see quantizable), so the int8
		// path never carries a conv bias and always applies BN.
		out = tensor.Conv2DQ(x, c.qw, nil, c.spec, c.inScale)
		tensor.BatchNormInference(out, c.gamma, c.beta, c.mean, c.varnc, 1e-3)
	} else if c.useBias {
		out = tensor.Conv2D(x, c.weight, c.bias, c.spec)
	} else {
		out = tensor.Conv2D(x, c.weight, nil, c.spec)
		tensor.BatchNormInference(out, c.gamma, c.beta, c.mean, c.varnc, 1e-3)
	}
	switch c.act {
	case ActSiLU:
		out.SiLU()
	case ActReLU:
		out.ReLU()
	case ActSigmoid:
		out.Sigmoid()
	}
	return out
}

// Params counts the conv weights plus either the bias or the BN affine
// pair, matching Ultralytics' trainable-parameter accounting. It reads
// the spec alone, so an architecture-only conv counts what a seeded one
// stores.
func (c *Conv) Params() int64 {
	s := c.spec
	n := int64(s.OutC) * int64(s.InC/s.Groups) * int64(s.KH) * int64(s.KW)
	if c.useBias {
		return n + int64(s.OutC)
	}
	return n + 2*int64(s.OutC) // BN gamma + beta
}

// Cost implements Module.
func (c *Conv) Cost(in []Shape) (int64, Shape) {
	s := in[0]
	oh, ow := c.spec.OutSize(s.H, s.W)
	groups := c.spec.Groups
	if groups <= 0 {
		groups = 1
	}
	macs := int64(oh) * int64(ow) * int64(c.spec.OutC) *
		int64(c.spec.InC/groups) * int64(c.spec.KH) * int64(c.spec.KW)
	return 2 * macs, Shape{C: c.spec.OutC, H: oh, W: ow}
}

// EachConv implements ConvWalker.
func (c *Conv) EachConv(fn func(*Conv)) { fn(c) }
