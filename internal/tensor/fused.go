package tensor

import (
	"fmt"
	"math"

	"ocularone/internal/parallel"
)

// This file holds the fused-epilogue kernels of the plan executor (see
// internal/nn's Plan): a convolution lowered to im2col + GEMM finishes
// each output row with the folded BatchNorm affine (or conv bias) and
// the activation applied while the row band is still cache-hot, so the
// interpreter's two extra full-tensor sweeps (BatchNormInference, then
// the activation) never touch memory. Every epilogue replicates the
// interpreter's float32 expressions operation for operation, which is
// what keeps the planned fp32 path bit-exact against the unfused
// kernels.

// EpAct selects the activation a fused epilogue applies. The values
// mirror internal/nn's Act enum; tensor keeps its own copy so the
// kernel layer stays import-free of the module layer.
type EpAct int

// Fused epilogue activations.
const (
	EpActNone EpAct = iota
	EpActSiLU
	EpActReLU
	EpActSigmoid
)

// Epilogue is the per-output-channel finishing pass of a fused conv
// GEMM: y = act(v*Scale[c] + Shift[c]) for folded BatchNorm, or
// y = act(v + Shift[c]) when Scale is nil (a raw conv bias). A nil
// Shift with nil Scale applies only the activation. The float32
// expressions match BatchNormInference/addBias exactly, so fused and
// unfused paths agree bit for bit.
type Epilogue struct {
	Scale []float32
	Shift []float32
	Act   EpAct
}

// apply finishes rows [r0, r1) of a GEMM result laid out as rows of
// width w, where GEMM row r corresponds to epilogue channel chanOff+r.
// It is applyCols over the full width, so row-band (reference) and
// column-stripe (packed) application share one op sequence and cannot
// drift apart.
func (ep Epilogue) apply(data []float32, r0, r1, w, chanOff int) {
	ep.applyCols(data, r0, r1, w, 0, w, chanOff)
}

// applyCols finishes the column stripe [j0, j1) of rows [r0, r1) — the
// per-stripe form the packed GEMM driver uses once a stripe's k loop
// completes. The per-element float32 ops are identical to apply's, so
// stripe-wise and row-wise application agree bit for bit.
func (ep Epilogue) applyCols(data []float32, r0, r1, w, j0, j1, chanOff int) {
	for r := r0; r < r1; r++ {
		row := data[r*w+j0 : r*w+j1]
		c := chanOff + r
		if ep.Scale != nil {
			scale, shift := ep.Scale[c], ep.Shift[c]
			for i, v := range row {
				row[i] = v*scale + shift
			}
		} else if ep.Shift != nil {
			b := ep.Shift[c]
			for i, v := range row {
				row[i] = v + b
			}
		}
		switch ep.Act {
		case EpActSiLU:
			for i, v := range row {
				row[i] = v / (1 + float32(math.Exp(float64(-v))))
			}
		case EpActReLU:
			for i, v := range row {
				if v < 0 {
					row[i] = 0
				}
			}
		case EpActSigmoid:
			for i, v := range row {
				row[i] = 1 / (1 + float32(math.Exp(float64(-v))))
			}
		}
	}
}

// MatMulEpilogueInto computes dst = A × B with the same cache-blocked
// ikj kernel as MatMulInto, then applies the epilogue to each finished
// row band before the worker moves on — one pass over dst instead of
// three. GEMM row r maps to epilogue channel chanOff+r (the group
// offset of a grouped convolution).
func MatMulEpilogueInto(dst, a, b *Tensor, ep Epilogue, chanOff int) {
	m := a.Shape[0]
	n := b.Shape[1]
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulEpilogueInto dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	if UsePackedGEMM(m, a.Shape[1], n) {
		matMulPackedInto(dst, a, b, ep, chanOff)
		return
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	if parallel.Serial() {
		matMulRange(dst, a, b, 0, m)
		ep.apply(dst.Data, 0, m, n, chanOff)
		return
	}
	parallel.ForRange(m, func(lo, hi int) {
		matMulRange(dst, a, b, lo, hi)
		ep.apply(dst.Data, lo, hi, n, chanOff)
	})
}

// MatMulInt8EpilogueInto is MatMulInt8Into with the BatchNorm/activation
// epilogue fused behind the requantization step: each finished int32
// accumulator tile is requantized (× rowScale), folded through the
// affine, and activated while still register/L1-resident. The float32
// op sequence — requant multiply, then v*scale+shift, then act —
// matches the unfused Conv2DQ + BatchNormInference + activation chain
// exactly.
func MatMulInt8EpilogueInto(dst *Tensor, a, b *QTensor, rowScale []float32, ep Epilogue, chanOff int) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulInt8EpilogueInto needs rank-2 operands, got %v × %v", a.Shape, b.Shape))
	}
	if a.Zeros != nil || b.Zeros != nil {
		panic("tensor: MatMulInt8EpilogueInto requires symmetric operands (zero-point 0)")
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulInt8EpilogueInto inner dims %d vs %d", k, k2))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInt8EpilogueInto dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	if len(rowScale) != m {
		panic(fmt.Sprintf("tensor: MatMulInt8EpilogueInto %d row scales for %d rows", len(rowScale), m))
	}
	if UsePackedGEMM(m, k, n) {
		matMulInt8PackedInto(dst, a, b, rowScale, ep, chanOff, false)
		return
	}
	if parallel.Serial() {
		var acc [4 * qnBlock]int32
		int8EpilogueRange(dst, a, b, rowScale, ep, chanOff, acc[:], 0, m)
		return
	}
	parallel.ForRange(m, func(lo, hi int) {
		acc := make([]int32, 4*qnBlock)
		int8EpilogueRange(dst, a, b, rowScale, ep, chanOff, acc, lo, hi)
	})
}

// int8EpilogueRange requantizes, folds, and activates rows [lo, hi) —
// the shared worker body of MatMulInt8EpilogueInto.
func int8EpilogueRange(dst *Tensor, a, b *QTensor, rowScale []float32, ep Epilogue, chanOff int, acc []int32, lo, hi int) {
	k := a.Shape[1]
	n := b.Shape[1]
	for i0 := lo; i0 < hi; i0 += 4 {
		rows := hi - i0
		if rows > 4 {
			rows = 4
		}
		for j0 := 0; j0 < n; j0 += qnBlock {
			j1 := j0 + qnBlock
			if j1 > n {
				j1 = n
			}
			nb := j1 - j0
			if rows == 4 {
				int8Tile4(acc, a.Data, b.Data, i0, j0, nb, k, n)
			} else {
				int8TileGeneric(acc, a.Data, b.Data, i0, rows, j0, nb, k, n)
			}
			for r := 0; r < rows; r++ {
				s := rowScale[i0+r]
				ar := acc[r*nb : (r+1)*nb]
				drow := dst.Data[(i0+r)*n+j0 : (i0+r)*n+j1]
				for j, v := range ar {
					drow[j] = float32(v) * s
				}
			}
		}
		ep.apply(dst.Data, i0, i0+rows, n, chanOff)
	}
}

// MaxPool2DInto is MaxPool2D writing into a caller-owned dst of shape
// [C, oh, ow] — the allocation-free form the plan executor binds
// against arena slots.
func MaxPool2DInto(dst, x *Tensor, k, stride, pad int) {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oh := (h+2*pad-k)/stride + 1
	ow := (w+2*pad-k)/stride + 1
	if dst.Shape[0] != c || dst.Shape[1] != oh || dst.Shape[2] != ow {
		panic(fmt.Sprintf("tensor: MaxPool2DInto dst %v, want [%d %d %d]", dst.Shape, c, oh, ow))
	}
	if parallel.Serial() {
		for ci := 0; ci < c; ci++ {
			maxPoolChan(dst, x, ci, k, stride, pad)
		}
		return
	}
	parallel.For(c, func(ci int) {
		maxPoolChan(dst, x, ci, k, stride, pad)
	})
}

// maxPoolChan pools one channel — the shared worker body of
// MaxPool2DInto.
func maxPoolChan(dst, x *Tensor, ci, k, stride, pad int) {
	h, w := x.Shape[1], x.Shape[2]
	oh, ow := dst.Shape[1], dst.Shape[2]
	src := x.Data[ci*h*w : (ci+1)*h*w]
	out := dst.Data[ci*oh*ow : (ci+1)*oh*ow]
	for oy := 0; oy < oh; oy++ {
		for ox := 0; ox < ow; ox++ {
			best := float32(negInf)
			for ky := 0; ky < k; ky++ {
				iy := oy*stride - pad + ky
				if iy < 0 || iy >= h {
					continue
				}
				for kx := 0; kx < k; kx++ {
					ix := ox*stride - pad + kx
					if ix < 0 || ix >= w {
						continue
					}
					if v := src[iy*w+ix]; v > best {
						best = v
					}
				}
			}
			out[oy*ow+ox] = best
		}
	}
}

// UpsampleNearest2xInto is UpsampleNearest2x writing into a
// caller-owned dst of shape [C, 2H, 2W].
func UpsampleNearest2xInto(dst, x *Tensor) {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	if dst.Shape[0] != c || dst.Shape[1] != h*2 || dst.Shape[2] != w*2 {
		panic(fmt.Sprintf("tensor: UpsampleNearest2xInto dst %v, want [%d %d %d]", dst.Shape, c, h*2, w*2))
	}
	if parallel.Serial() {
		for ci := 0; ci < c; ci++ {
			upsampleChan(dst, x, ci)
		}
		return
	}
	parallel.For(c, func(ci int) {
		upsampleChan(dst, x, ci)
	})
}

// upsampleChan upsamples one channel — the shared worker body of
// UpsampleNearest2xInto.
func upsampleChan(dst, x *Tensor, ci int) {
	h, w := x.Shape[1], x.Shape[2]
	src := x.Data[ci*h*w:]
	out := dst.Data[ci*h*2*w*2:]
	for y := 0; y < h; y++ {
		srow := src[y*w : (y+1)*w]
		d0 := out[(2*y)*w*2 : (2*y)*w*2+w*2]
		for xx, v := range srow {
			d0[2*xx] = v
			d0[2*xx+1] = v
		}
		copy(out[(2*y+1)*w*2:(2*y+1)*w*2+w*2], d0)
	}
}

// ConcatChannelsInto is ConcatChannels writing into a caller-owned dst
// whose channel count is the sum of the inputs'.
func ConcatChannelsInto(dst *Tensor, xs ...*Tensor) {
	if len(xs) == 0 {
		panic("tensor: ConcatChannelsInto with no inputs")
	}
	h, w := xs[0].Shape[1], xs[0].Shape[2]
	off := 0
	for _, x := range xs {
		if x.Shape[1] != h || x.Shape[2] != w {
			panic(fmt.Sprintf("tensor: ConcatChannelsInto spatial mismatch %v vs [%d %d]", x.Shape, h, w))
		}
		copy(dst.Data[off:], x.Data)
		off += len(x.Data)
	}
	if off != len(dst.Data) {
		panic(fmt.Sprintf("tensor: ConcatChannelsInto dst holds %d elems, inputs %d", len(dst.Data), off))
	}
}

// TransposeInto is Transpose writing into a caller-owned dst of shape
// [n, m] for a source of shape [m, n].
func TransposeInto(dst, a *Tensor) {
	m, n := a.Shape[0], a.Shape[1]
	if dst.Shape[0] != n || dst.Shape[1] != m {
		panic(fmt.Sprintf("tensor: TransposeInto dst %v, want [%d %d]", dst.Shape, n, m))
	}
	if parallel.Serial() {
		transposeRange(dst, a, 0, m)
		return
	}
	parallel.ForRange(m, func(lo, hi int) {
		transposeRange(dst, a, lo, hi)
	})
}

// transposeRange transposes source rows [lo, hi) — the shared worker
// body of TransposeInto.
func transposeRange(dst, a *Tensor, lo, hi int) {
	m, n := a.Shape[0], a.Shape[1]
	const bs = 32
	for i0 := lo; i0 < hi; i0 += bs {
		i1 := i0 + bs
		if i1 > hi {
			i1 = hi
		}
		for j0 := 0; j0 < n; j0 += bs {
			j1 := j0 + bs
			if j1 > n {
				j1 = n
			}
			for i := i0; i < i1; i++ {
				for j := j0; j < j1; j++ {
					dst.Data[j*m+i] = a.Data[i*n+j]
				}
			}
		}
	}
}
