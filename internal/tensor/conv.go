package tensor

import (
	"fmt"
	"math"

	"ocularone/internal/parallel"
)

// ConvSpec describes a 2-D convolution. Tensors use CHW layout (channels,
// height, width); weights use [outC, inC, kH, kW].
type ConvSpec struct {
	InC, OutC  int
	KH, KW     int
	StrideH    int
	StrideW    int
	PadH, PadW int
	Groups     int // 1 for dense conv; InC for depthwise
	DilationH  int // 0 treated as 1
	DilationW  int
}

func (s ConvSpec) dil() (int, int) {
	dh, dw := s.DilationH, s.DilationW
	if dh == 0 {
		dh = 1
	}
	if dw == 0 {
		dw = 1
	}
	return dh, dw
}

// OutSize returns the output spatial dims for an input of h×w.
func (s ConvSpec) OutSize(h, w int) (int, int) {
	dh, dw := s.dil()
	oh := (h+2*s.PadH-dh*(s.KH-1)-1)/s.StrideH + 1
	ow := (w+2*s.PadW-dw*(s.KW-1)-1)/s.StrideW + 1
	return oh, ow
}

// Conv2D applies the convolution described by spec to input x [inC,H,W]
// with weights w [outC, inC/groups, kH, kW] and optional bias [outC]
// (nil for none). Large-enough groups run the implicit-im2col packed
// GEMM (pack.go) — receptive fields are gathered panel by panel
// straight into the micro-kernel, so no full cols matrix is ever
// materialised; small groups (depthwise, tiny heads) keep the
// reference im2col + matmul lowering. Both produce bit-identical
// results.
func Conv2D(x, w, bias *Tensor, spec ConvSpec) *Tensor {
	out, _ := conv2DImpl(x, w, bias, spec, false)
	return out
}

// conv2DRef is the retained reference lowering — materialised im2col +
// matmul per group — that the implicit-im2col parity tests pin
// against.
func conv2DRef(x, w, bias *Tensor, spec ConvSpec) *Tensor {
	out, _ := conv2DImpl(x, w, bias, spec, true)
	return out
}

// conv2DImpl is the shared body of Conv2D and conv2DRef; it reports
// whether the packed path ran (for tests).
func conv2DImpl(x, w, bias *Tensor, spec ConvSpec, forceRef bool) (*Tensor, bool) {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("tensor: Conv2D input rank %d, want 3 (CHW)", x.Rank()))
	}
	if x.Shape[0] != spec.InC {
		panic(fmt.Sprintf("tensor: Conv2D input channels %d, spec %d", x.Shape[0], spec.InC))
	}
	groups := spec.Groups
	if groups <= 0 {
		groups = 1
	}
	if spec.InC%groups != 0 || spec.OutC%groups != 0 {
		panic(fmt.Sprintf("tensor: Conv2D groups %d incompatible with channels %d→%d", groups, spec.InC, spec.OutC))
	}
	h, wd := x.Shape[1], x.Shape[2]
	oh, ow := spec.OutSize(h, wd)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Conv2D empty output for input %dx%d spec %+v", h, wd, spec))
	}
	out := New(spec.OutC, oh, ow)

	icg := spec.InC / groups  // in channels per group
	ocg := spec.OutC / groups // out channels per group
	k := icg * spec.KH * spec.KW
	plane := oh * ow
	if !forceRef && UsePackedGEMM(ocg, k, plane) {
		ap := Scratch.GetRaw(packALen(ocg, k))
		for g := 0; g < groups; g++ {
			packATo(ap, w.Data[g*ocg*k:(g+1)*ocg*k], ocg, k)
			dst := FromSlice(out.Data[g*ocg*plane:(g+1)*ocg*plane], ocg, plane)
			gemmStripesF32(dst.Data, ocg, plane, k,
				ap, newF32ConvB(x, spec, g*icg, ow), Epilogue{}, 0, nil, nil)
		}
		Scratch.PutRaw(ap)
		addBias(out.Data, bias, spec.OutC, plane)
		return out, true
	}
	cols := Scratch.Get(k, plane)
	for g := 0; g < groups; g++ {
		im2col(x, cols, spec, g*icg, icg, oh, ow)
		// Weight slice for this group: [ocg, icg*KH*KW].
		wslice := FromSlice(w.Data[g*ocg*k:(g+1)*ocg*k], ocg, k)
		dst := FromSlice(out.Data[g*ocg*plane:(g+1)*ocg*plane], ocg, plane)
		MatMulInto(dst, wslice, cols)
	}
	Scratch.Put(cols)
	addBias(out.Data, bias, spec.OutC, plane)
	return out, false
}

// Conv2DBatch applies one convolution to a batch of same-shape CHW
// inputs, lowering the whole batch to a single im2col + blocked matmul
// per group: the cols matrix gains a column block per sample, so the
// matmul amortises the weight streaming that Conv2D repeats per frame.
// Outputs (one [outC, oh, ow] tensor per sample) and all scratch come
// from the Scratch pool; callers may Put outputs back once consumed.
// Per-column accumulation order matches Conv2D exactly, so results are
// bit-identical to calling Conv2D per sample.
func Conv2DBatch(xs []*Tensor, w, bias *Tensor, spec ConvSpec) []*Tensor {
	if len(xs) == 0 {
		panic("tensor: Conv2DBatch with empty batch")
	}
	for _, x := range xs {
		if x.Rank() != 3 || x.Shape[0] != spec.InC {
			panic(fmt.Sprintf("tensor: Conv2DBatch input %v, want [%d H W]", x.Shape, spec.InC))
		}
		if x.Shape[1] != xs[0].Shape[1] || x.Shape[2] != xs[0].Shape[2] {
			panic(fmt.Sprintf("tensor: Conv2DBatch ragged batch %v vs %v", x.Shape, xs[0].Shape))
		}
	}
	groups := spec.Groups
	if groups <= 0 {
		groups = 1
	}
	if spec.InC%groups != 0 || spec.OutC%groups != 0 {
		panic(fmt.Sprintf("tensor: Conv2DBatch groups %d incompatible with channels %d→%d", groups, spec.InC, spec.OutC))
	}
	nb := len(xs)
	h, wd := xs[0].Shape[1], xs[0].Shape[2]
	oh, ow := spec.OutSize(h, wd)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: Conv2DBatch empty output for input %dx%d spec %+v", h, wd, spec))
	}
	plane := oh * ow
	outs := make([]*Tensor, nb)
	for b := range outs {
		outs[b] = Scratch.Get(spec.OutC, oh, ow)
	}
	icg := spec.InC / groups
	ocg := spec.OutC / groups
	cols := Scratch.Get(icg*spec.KH*spec.KW, nb*plane)
	big := Scratch.Get(ocg, nb*plane)
	for g := 0; g < groups; g++ {
		for b, x := range xs {
			im2colInto(x, cols, spec, g*icg, icg, oh, ow, b*plane, nb*plane)
		}
		k := icg * spec.KH * spec.KW
		wslice := FromSlice(w.Data[g*ocg*k:(g+1)*ocg*k], ocg, k)
		// Route on the per-sample shape, not the batch-widened one, so
		// the batch takes the same kernel (packed vs reference) as
		// Conv2D would per sample: on FMA tiers the two kernels round
		// differently, and a threshold crossed only by the batched n
		// would silently break the bit-exact contract above.
		if UsePackedGEMM(ocg, k, plane) {
			matMulPackedInto(big, wslice, cols, Epilogue{}, 0)
		} else {
			matMulRefInto(big, wslice, cols)
		}
		// Scatter the [ocg, nb*plane] group result into per-sample CHW.
		parallel.For(ocg*nb, func(i int) {
			c, b := i/nb, i%nb
			copy(outs[b].Data[(g*ocg+c)*plane:(g*ocg+c+1)*plane],
				big.Data[c*nb*plane+b*plane:c*nb*plane+(b+1)*plane])
		})
	}
	Scratch.Put(cols, big)
	for _, out := range outs {
		addBias(out.Data, bias, spec.OutC, plane)
	}
	return outs
}

// addBias adds a per-channel bias over a CHW activation laid out as
// outC planes of plane elements. A nil bias is a no-op.
func addBias(data []float32, bias *Tensor, outC, plane int) {
	if bias == nil {
		return
	}
	if bias.Len() != outC {
		panic(fmt.Sprintf("tensor: conv bias len %d, want %d", bias.Len(), outC))
	}
	parallel.For(outC, func(c int) {
		b := bias.Data[c]
		d := data[c*plane : (c+1)*plane]
		for i := range d {
			d[i] += b
		}
	})
}

// im2col unrolls receptive fields of channels [c0, c0+nc) into cols, a
// [nc*KH*KW, oh*ow] matrix. Zero padding is materialised as zeros.
func im2col(x, cols *Tensor, spec ConvSpec, c0, nc, oh, ow int) {
	im2colInto(x, cols, spec, c0, nc, oh, ow, 0, oh*ow)
}

// Im2ColInto exposes the im2col unroll to the plan executor (internal/nn
// Plan), which owns its cols buffer for the lifetime of a compiled
// instance instead of cycling it through Scratch. Arguments follow
// im2colInto.
func Im2ColInto(x, cols *Tensor, spec ConvSpec, c0, nc, oh, ow, colOff, rowStride int) {
	im2colInto(x, cols, spec, c0, nc, oh, ow, colOff, rowStride)
}

// Im2ColQInto is the quantized twin of Im2ColInto: receptive fields are
// quantized at inverse scale inv while they are unrolled into the int8
// cols buffer.
func Im2ColQInto(x *Tensor, cols []int8, inv float32, spec ConvSpec, c0, nc, oh, ow, colOff, rowStride int) {
	im2colQInto(x, cols, inv, spec, c0, nc, oh, ow, colOff, rowStride)
}

// im2colInto is im2col writing each unrolled row into cols at column
// offset colOff, with rowStride columns per cols row — the layout hook
// that lets a batch of samples share one cols matrix (sample b occupies
// columns [b*oh*ow, (b+1)*oh*ow)).
func im2colInto(x, cols *Tensor, spec ConvSpec, c0, nc, oh, ow, colOff, rowStride int) {
	total := nc * spec.KH * spec.KW
	if parallel.Serial() {
		for r := 0; r < total; r++ {
			im2colRow(x, cols, spec, c0, r, oh, ow, colOff, rowStride)
		}
		return
	}
	parallel.For(total, func(r int) {
		im2colRow(x, cols, spec, c0, r, oh, ow, colOff, rowStride)
	})
}

// im2colRow unrolls one (channel, ky, kx) row of the cols matrix — the
// shared worker body of im2colInto.
func im2colRow(x, cols *Tensor, spec ConvSpec, c0, r, oh, ow, colOff, rowStride int) {
	h, w := x.Shape[1], x.Shape[2]
	dh, dw := spec.dil()
	c := r / (spec.KH * spec.KW)
	rem := r % (spec.KH * spec.KW)
	ky := rem / spec.KW
	kx := rem % spec.KW
	src := x.Data[(c0+c)*h*w : (c0+c+1)*h*w]
	dst := cols.Data[r*rowStride+colOff : r*rowStride+colOff+oh*ow]
	i := 0
	for oy := 0; oy < oh; oy++ {
		iy := oy*spec.StrideH - spec.PadH + ky*dh
		if iy < 0 || iy >= h {
			for ox := 0; ox < ow; ox++ {
				dst[i] = 0
				i++
			}
			continue
		}
		srow := src[iy*w : (iy+1)*w]
		ix := -spec.PadW + kx*dw
		for ox := 0; ox < ow; ox++ {
			if ix >= 0 && ix < w {
				dst[i] = srow[ix]
			} else {
				dst[i] = 0
			}
			i++
			ix += spec.StrideW
		}
	}
}

// MaxPool2D applies kxk max pooling with the given stride to x [C,H,W].
func MaxPool2D(x *Tensor, k, stride, pad int) *Tensor {
	oh, ow := PoolOutSize(x.Shape[1], x.Shape[2], k, stride, pad)
	out := New(x.Shape[0], oh, ow)
	MaxPool2DInto(out, x, k, stride, pad)
	return out
}

// negInf is what a pooling window with no input would yield; PoolOutSize
// rejects the geometries that have one.
const negInf = float32(-3.4e38)

// AvgPoolGlobal reduces each channel of x [C,H,W] to its mean, returning
// a [C] tensor.
func AvgPoolGlobal(x *Tensor) *Tensor {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	out := New(c)
	plane := h * w
	inv := 1 / float32(plane)
	parallel.For(c, func(ci int) {
		var s float32
		for _, v := range x.Data[ci*plane : (ci+1)*plane] {
			s += v
		}
		out.Data[ci] = s * inv
	})
	return out
}

// UpsampleNearest2x doubles the spatial dims of x [C,H,W] by nearest
// neighbour, the upsampling used in YOLO necks and Monodepth decoders.
func UpsampleNearest2x(x *Tensor) *Tensor {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	out := New(c, h*2, w*2)
	parallel.For(c, func(ci int) {
		src := x.Data[ci*h*w:]
		dst := out.Data[ci*h*2*w*2:]
		for y := 0; y < h; y++ {
			srow := src[y*w : (y+1)*w]
			d0 := dst[(2*y)*w*2 : (2*y)*w*2+w*2]
			for xx, v := range srow {
				d0[2*xx] = v
				d0[2*xx+1] = v
			}
			copy(dst[(2*y+1)*w*2:(2*y+1)*w*2+w*2], d0)
		}
	})
	return out
}

// ConcatChannels concatenates CHW tensors along the channel axis. All
// inputs must share spatial dims.
func ConcatChannels(xs ...*Tensor) *Tensor {
	if len(xs) == 0 {
		panic("tensor: ConcatChannels with no inputs")
	}
	h, w := xs[0].Shape[1], xs[0].Shape[2]
	total := 0
	for _, x := range xs {
		if x.Shape[1] != h || x.Shape[2] != w {
			panic(fmt.Sprintf("tensor: ConcatChannels spatial mismatch %v vs [%d %d]", x.Shape, h, w))
		}
		total += x.Shape[0]
	}
	out := New(total, h, w)
	off := 0
	for _, x := range xs {
		copy(out.Data[off:], x.Data)
		off += len(x.Data)
	}
	return out
}

// BatchNormInference applies y = gamma*(x-mean)/sqrt(var+eps) + beta per
// channel of x [C,H,W], in place. This is the inference-time folding used
// by every deployed model in the paper.
func BatchNormInference(x *Tensor, gamma, beta, mean, variance []float32, eps float32) {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	plane := h * w
	parallel.For(c, func(ci int) {
		scale := gamma[ci] / sqrt32(variance[ci]+eps)
		shift := beta[ci] - mean[ci]*scale
		d := x.Data[ci*plane : (ci+1)*plane]
		for i, v := range d {
			d[i] = v*scale + shift
		}
	})
}

func sqrt32(v float32) float32 {
	if v <= 0 {
		return 0
	}
	return float32(math.Sqrt(float64(v)))
}
