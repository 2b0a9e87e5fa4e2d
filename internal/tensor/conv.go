package tensor

import (
	"fmt"
	"math"
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
// (nil for none). Every group runs the implicit-im2col packed GEMM
// (pack.go): receptive fields are gathered panel by panel straight into
// the micro-kernel, so no cols matrix is ever materialised. The plan's
// conv op (internal/nn) runs the same driver over weights packed once.
func Conv2D(x, w, bias *Tensor, spec ConvSpec) *Tensor {
	groups, oh, ow := spec.check("Conv2D", x)
	out := New(spec.OutC, oh, ow)
	icg := spec.InC / groups  // in channels per group
	ocg := spec.OutC / groups // out channels per group
	k := icg * spec.KH * spec.KW
	plane := oh * ow
	ap := Scratch.GetRaw(packALen(ocg, k))
	for g := 0; g < groups; g++ {
		packATo(ap, w.Data[g*ocg*k:(g+1)*ocg*k], ocg, k)
		src := newF32ConvB(x, spec, g*icg, icg, oh, ow)
		gemmStripesF32(out.Data[g*ocg*plane:(g+1)*ocg*plane], ocg, plane, k, ap, src, Epilogue{}, 0, nil, nil)
		src.release()
	}
	Scratch.PutRaw(ap)
	addBias(out.Data, bias, spec.OutC, plane)
	return out
}

// check validates a CHW input against the spec for the named entry
// point and returns the group count (at least 1) and the output dims.
func (s ConvSpec) check(fn string, x *Tensor) (groups, oh, ow int) {
	if x.Rank() != 3 {
		panic(fmt.Sprintf("tensor: %s input rank %d, want 3 (CHW)", fn, x.Rank()))
	}
	if x.Shape[0] != s.InC {
		panic(fmt.Sprintf("tensor: %s input channels %d, spec %d", fn, x.Shape[0], s.InC))
	}
	groups = max(s.Groups, 1)
	if s.InC%groups != 0 || s.OutC%groups != 0 {
		panic(fmt.Sprintf("tensor: %s groups %d incompatible with channels %d→%d", fn, groups, s.InC, s.OutC))
	}
	oh, ow = s.OutSize(x.Shape[1], x.Shape[2])
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("tensor: %s empty output for input %dx%d spec %+v", fn, x.Shape[1], x.Shape[2], s))
	}
	return groups, oh, ow
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
	for c := 0; c < outC; c++ {
		b := bias.Data[c]
		d := data[c*plane : (c+1)*plane]
		for i := range d {
			d[i] += b
		}
	}
}

// Im2ColInto unrolls receptive fields of channels [c0, c0+nc) into cols,
// a [nc*KH*KW, ·] matrix, writing each unrolled row at column offset
// colOff with rowStride columns per cols row; zero padding is
// materialised as zeros. No conv is lowered through it: the plan
// executor's ABFT-checked convs (internal/nn) re-execute a group that
// failed its checksum through it and the reference GEMM — deliberately
// not the code path that failed — and the conv tests use it as oracle.
func Im2ColInto(x, cols *Tensor, spec ConvSpec, c0, nc, oh, ow, colOff, rowStride int) {
	total := nc * spec.KH * spec.KW
	for r := 0; r < total; r++ {
		im2colRow(x, cols, spec, c0, r, oh, ow, colOff, rowStride)
	}
}

// im2colRow unrolls one (channel, ky, kx) row of Im2ColInto's cols matrix.
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

// UpsampleNearest2x doubles the spatial dims of x [C,H,W] by nearest
// neighbour, the upsampling used in YOLO necks and Monodepth decoders.
func UpsampleNearest2x(x *Tensor) *Tensor {
	out := New(x.Shape[0], x.Shape[1]*2, x.Shape[2]*2)
	UpsampleNearest2xInto(out, x)
	return out
}

// ConcatChannels concatenates CHW tensors along the channel axis. All
// inputs must share spatial dims.
func ConcatChannels(xs ...*Tensor) *Tensor {
	if len(xs) == 0 {
		panic("tensor: ConcatChannels with no inputs")
	}
	total := 0
	for _, x := range xs {
		total += x.Shape[0]
	}
	out := New(total, xs[0].Shape[1], xs[0].Shape[2])
	ConcatChannelsInto(out, xs...)
	return out
}

// BatchNormInference applies y = gamma*(x-mean)/sqrt(var+eps) + beta per
// channel of x [C,H,W], in place. This is the inference-time folding used
// by every deployed model in the paper.
func BatchNormInference(x *Tensor, gamma, beta, mean, variance []float32, eps float32) {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	plane := h * w
	for ci := 0; ci < c; ci++ {
		scale := gamma[ci] / sqrt32(variance[ci]+eps)
		shift := beta[ci] - mean[ci]*scale
		d := x.Data[ci*plane : (ci+1)*plane]
		for i, v := range d {
			d[i] = v*scale + shift
		}
	}
}

func sqrt32(v float32) float32 {
	if v <= 0 {
		return 0
	}
	return float32(math.Sqrt(float64(v)))
}
