package tensor

import (
	"fmt"
	"math"
)

// QTensor is a dense row-major int8 tensor with quantization metadata:
// Data[i] ≈ round(value/scale) + zero, where the scale/zero pair comes
// from channel c along axis 0 for per-channel quantization
// (len(Scales) == Shape[0]) or from the single entry for per-tensor
// quantization (len(Scales) == 1). Zeros == nil means symmetric
// quantization (zero-point 0 everywhere) — the scheme every int8 GEMM
// kernel in this package requires, because it keeps the int32
// accumulator free of zero-point correction terms.
type QTensor struct {
	Shape  []int
	Data   []int8
	Scales []float32
	Zeros  []int32
}

// QFromSlice wraps int8 data in a QTensor of the given shape without
// copying, carrying the given per-channel (or per-tensor) scales.
func QFromSlice(data []int8, scales []float32, shape ...int) *QTensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: qtensor data length %d does not match shape %v", len(data), shape))
	}
	return &QTensor{Shape: append([]int(nil), shape...), Data: data, Scales: scales}
}

// Rank returns the number of axes.
func (q *QTensor) Rank() int { return len(q.Shape) }

// ScaleFor returns the dequantization scale of channel c (axis 0).
func (q *QTensor) ScaleFor(c int) float32 {
	if len(q.Scales) == 1 {
		return q.Scales[0]
	}
	return q.Scales[c]
}

// zeroFor returns the zero-point of channel c (0 when symmetric).
func (q *QTensor) zeroFor(c int) int32 {
	if q.Zeros == nil {
		return 0
	}
	if len(q.Zeros) == 1 {
		return q.Zeros[0]
	}
	return q.Zeros[c]
}

// quantizeRound converts one value at the given inverse scale and
// zero-point, rounding half away from zero and saturating to int8
// range. The half carries r's sign bit (0.5 with the sign copied in)
// rather than branching on r >= 0: activation signs are close to a coin
// flip, and the mispredicted branch cost more than the arithmetic.
func quantizeRound(v, inv float32, zero int32) int8 {
	r := v * inv
	r += math.Float32frombits(0x3f000000 | math.Float32bits(r)&0x80000000)
	qv := int32(r) + zero
	if qv > 127 {
		qv = 127
	} else if qv < -128 {
		qv = -128
	}
	return int8(qv)
}

// QuantizeLinear quantizes t along axis 0 with explicit scales and
// optional zero-points: q = clamp(round(v/scale) + zero, -128, 127).
// scales must have one entry (per-tensor) or Shape[0] entries
// (per-channel); zeros may be nil (symmetric) or match scales in length.
func QuantizeLinear(t *Tensor, scales []float32, zeros []int32) *QTensor {
	ch := 1
	if t.Rank() > 0 {
		ch = t.Shape[0]
	}
	if len(scales) != 1 && len(scales) != ch {
		panic(fmt.Sprintf("tensor: QuantizeLinear %d scales for %d channels", len(scales), ch))
	}
	if zeros != nil && len(zeros) != len(scales) {
		panic(fmt.Sprintf("tensor: QuantizeLinear %d zeros for %d scales", len(zeros), len(scales)))
	}
	q := &QTensor{
		Shape:  append([]int(nil), t.Shape...),
		Data:   make([]int8, len(t.Data)),
		Scales: append([]float32(nil), scales...),
	}
	if zeros != nil {
		q.Zeros = append([]int32(nil), zeros...)
	}
	plane := 0
	if ch > 0 {
		plane = len(t.Data) / ch
	}
	for c := 0; c < ch; c++ {
		s := q.ScaleFor(c)
		var inv float32
		if s != 0 {
			inv = 1 / s
		}
		z := q.zeroFor(c)
		d := t.Data[c*plane : (c+1)*plane]
		out := q.Data[c*plane : (c+1)*plane]
		for i, v := range d {
			out[i] = quantizeRound(v, inv, z)
		}
	}
	return q
}

// QuantizeSymmetric quantizes t with one symmetric per-tensor scale
// (absmax/127, zero-point 0).
func QuantizeSymmetric(t *Tensor) *QTensor {
	var mx float32
	for _, v := range t.Data {
		if v < 0 {
			v = -v
		}
		if v > mx {
			mx = v
		}
	}
	return QuantizeLinear(t, []float32{mx / 127}, nil)
}

// QuantizePerChannel quantizes t with symmetric per-channel scales
// along axis 0 (absmax/127 per channel) — the weight scheme of the
// quantized conv path, which preserves accuracy across channels with
// very different weight magnitudes.
func QuantizePerChannel(t *Tensor) *QTensor {
	ch := t.Shape[0]
	plane := len(t.Data) / ch
	scales := make([]float32, ch)
	for c := 0; c < ch; c++ {
		var mx float32
		for _, v := range t.Data[c*plane : (c+1)*plane] {
			if v < 0 {
				v = -v
			}
			if v > mx {
				mx = v
			}
		}
		scales[c] = mx / 127
	}
	return QuantizeLinear(t, scales, nil)
}

// qnBlock is the int8 GEMM column-block width: 4 accumulator rows of
// qnBlock int32s (8 KB) stay L1-resident while a k-panel of B streams
// through, which is what keeps the kernel compute-bound.
const qnBlock = 512

// MatMulInt8Into computes dst = (A × B) ⊙ rowScale for int8 operands A
// (m×k) and B (k×n) with int32 accumulation: the fused requantization
// epilogue multiplies each finished int32 row by rowScale[i] (the
// product of A's row scale and B's tensor scale) while the accumulator
// tile is still hot, so the int32 intermediate never touches memory
// twice. Both operands must be symmetric (zero-point 0). The kernel
// registers-blocks 4 output rows so every streamed byte of B feeds four
// multiply-accumulates — the int8 analogue of MatMulInto's ikj loop.
func MatMulInt8Into(dst *Tensor, a, b *QTensor, rowScale []float32) {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMulInt8Into needs rank-2 operands, got %v × %v", a.Shape, b.Shape))
	}
	if a.Zeros != nil || b.Zeros != nil {
		panic("tensor: MatMulInt8Into requires symmetric operands (zero-point 0)")
	}
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulInt8Into inner dims %d vs %d", k, k2))
	}
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInt8Into dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	if len(rowScale) != m {
		panic(fmt.Sprintf("tensor: MatMulInt8Into %d row scales for %d rows", len(rowScale), m))
	}
	if usePackedGEMM(m, k, n) && k <= maxDepthQ(qK) {
		matMulInt8PackedInto(dst, a, b, rowScale, Epilogue{}, 0)
		return
	}
	matMulInt8RefInto(dst, a, b, rowScale, Epilogue{}, 0)
}

// matMulInt8RefInto is the reference int8 GEMM on 4-row tiles: each
// finished accumulator tile is requantized by rowScale, then each row
// block folded and activated by ep (GEMM row r is epilogue channel
// chanOff+r). MatMulInt8Into's small shapes and the integrity layer's
// re-execution (MatMulInt8RefEpilogueInto) both run it.
func matMulInt8RefInto(dst *Tensor, a, b *QTensor, rowScale []float32, ep Epilogue, chanOff int) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	var acc [4 * qnBlock]int32
	for i0 := 0; i0 < m; i0 += 4 {
		rows := min(m-i0, 4)
		for j0 := 0; j0 < n; j0 += qnBlock {
			j1 := min(j0+qnBlock, n)
			nb := j1 - j0
			if rows == 4 {
				int8Tile4(acc[:], a.Data, b.Data, i0, j0, nb, k, n)
			} else {
				int8TileGeneric(acc[:], a.Data, b.Data, i0, rows, j0, nb, k, n)
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

// int8Tile4 accumulates a 4×nb output tile with the k loop unrolled by
// 4: each inner iteration streams 4 bytes from four B panel rows and
// folds 16 MACs into four accumulator updates, so the store traffic per
// MAC drops 4x against a row-at-a-time loop and the int32 multiplies —
// the scalar port this kernel saturates — chain into single additions.
// Measured ~1.9x over MatMulInto's fp32 axpy loop at YOLO conv shapes
// (128×576 × 576×1600) on the reference container.
func int8Tile4(acc []int32, a, b []int8, i0, j0, nb, k, n int) {
	acc0 := acc[0*nb : 1*nb]
	acc1 := acc[1*nb : 2*nb]
	acc2 := acc[2*nb : 3*nb]
	acc3 := acc[3*nb : 4*nb]
	for j := range acc0 {
		acc0[j], acc1[j], acc2[j], acc3[j] = 0, 0, 0, 0
	}
	r0 := a[(i0+0)*k : (i0+1)*k]
	r1 := a[(i0+1)*k : (i0+2)*k]
	r2 := a[(i0+2)*k : (i0+3)*k]
	r3 := a[(i0+3)*k : (i0+4)*k]
	kk := 0
	for ; kk+3 < k; kk += 4 {
		a00, a01, a02, a03 := int32(r0[kk]), int32(r0[kk+1]), int32(r0[kk+2]), int32(r0[kk+3])
		a10, a11, a12, a13 := int32(r1[kk]), int32(r1[kk+1]), int32(r1[kk+2]), int32(r1[kk+3])
		a20, a21, a22, a23 := int32(r2[kk]), int32(r2[kk+1]), int32(r2[kk+2]), int32(r2[kk+3])
		a30, a31, a32, a33 := int32(r3[kk]), int32(r3[kk+1]), int32(r3[kk+2]), int32(r3[kk+3])
		b0 := b[kk*n+j0 : kk*n+j0+nb]
		b1 := b[(kk+1)*n+j0 : (kk+1)*n+j0+nb]
		b2 := b[(kk+2)*n+j0 : (kk+2)*n+j0+nb]
		b3 := b[(kk+3)*n+j0 : (kk+3)*n+j0+nb]
		_ = b1[len(b0)-1]
		_ = b2[len(b0)-1]
		_ = b3[len(b0)-1]
		_ = acc0[len(b0)-1]
		_ = acc1[len(b0)-1]
		_ = acc2[len(b0)-1]
		_ = acc3[len(b0)-1]
		for j, bv := range b0 {
			x0 := int32(bv)
			x1 := int32(b1[j])
			x2 := int32(b2[j])
			x3 := int32(b3[j])
			acc0[j] += a00*x0 + a01*x1 + a02*x2 + a03*x3
			acc1[j] += a10*x0 + a11*x1 + a12*x2 + a13*x3
			acc2[j] += a20*x0 + a21*x1 + a22*x2 + a23*x3
			acc3[j] += a30*x0 + a31*x1 + a32*x2 + a33*x3
		}
	}
	for ; kk < k; kk++ {
		a0, a1, a2, a3 := int32(r0[kk]), int32(r1[kk]), int32(r2[kk]), int32(r3[kk])
		brow := b[kk*n+j0 : kk*n+j0+nb]
		_ = acc0[len(brow)-1]
		_ = acc1[len(brow)-1]
		_ = acc2[len(brow)-1]
		_ = acc3[len(brow)-1]
		for j, bv := range brow {
			bb := int32(bv)
			acc0[j] += a0 * bb
			acc1[j] += a1 * bb
			acc2[j] += a2 * bb
			acc3[j] += a3 * bb
		}
	}
}

// int8TileGeneric handles the ragged tail tile (fewer than 4 rows).
func int8TileGeneric(acc []int32, a, b []int8, i0, rows, j0, nb, k, n int) {
	for r := 0; r < rows; r++ {
		ar := acc[r*nb : (r+1)*nb]
		for j := range ar {
			ar[j] = 0
		}
		for kk := 0; kk < k; kk++ {
			av := int32(a[(i0+r)*k+kk])
			if av == 0 {
				continue
			}
			brow := b[kk*n+j0 : kk*n+j0+nb]
			_ = ar[len(brow)-1]
			for j, bv := range brow {
				ar[j] += av * int32(bv)
			}
		}
	}
}

// Im2ColQInto is the quantized twin of Im2ColInto, with the same two
// uses: it unrolls receptive fields of channels [c0, c0+nc) directly
// into int8 cols at the given inverse activation scale. Zero padding
// maps to quantized 0 (the symmetric zero-point).
func Im2ColQInto(x *Tensor, cols []int8, inv float32, spec ConvSpec, c0, nc, oh, ow, colOff, rowStride int) {
	total := nc * spec.KH * spec.KW
	for r := 0; r < total; r++ {
		im2colQRow(x, cols, inv, spec, c0, r, oh, ow, colOff, rowStride)
	}
}

// im2colQRow unrolls and quantizes one cols row of Im2ColQInto.
func im2colQRow(x *Tensor, cols []int8, inv float32, spec ConvSpec, c0, r, oh, ow, colOff, rowStride int) {
	h, w := x.Shape[1], x.Shape[2]
	dh, dw := spec.dil()
	c := r / (spec.KH * spec.KW)
	rem := r % (spec.KH * spec.KW)
	ky := rem / spec.KW
	kx := rem % spec.KW
	src := x.Data[(c0+c)*h*w : (c0+c+1)*h*w]
	dst := cols[r*rowStride+colOff : r*rowStride+colOff+oh*ow]
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
				dst[i] = quantizeRound(srow[ix], inv, 0)
			} else {
				dst[i] = 0
			}
			i++
			ix += spec.StrideW
		}
	}
}

// convQScales returns the fused requantization scales of one group:
// rowScale[oc] = wScale[g*ocg+oc] × xScale, so the GEMM epilogue lands
// directly in fp32 output space.
func convQScales(w *QTensor, xScale float32, g, ocg int) []float32 {
	out := make([]float32, ocg)
	for oc := range out {
		out[oc] = w.ScaleFor(g*ocg+oc) * xScale
	}
	return out
}

// Conv2DQ is the int8 counterpart of Conv2D: input x [inC,H,W] is
// quantized at the calibrated activation scale xScale while receptive
// fields are packed (implicit, quantizing im2col — the int8 cols matrix
// never exists), weights w carry symmetric per-channel int8 values, and
// the int8 GEMM accumulates in int32 with the dequantizing epilogue
// fused in. Output is fp32 [outC,oh,ow], directly comparable to
// Conv2D's.
func Conv2DQ(x *Tensor, w *QTensor, bias *Tensor, spec ConvSpec, xScale float32) *Tensor {
	groups, oh, ow := spec.check("Conv2DQ", x)
	if xScale <= 0 {
		panic("tensor: Conv2DQ requires a positive activation scale")
	}
	out := New(spec.OutC, oh, ow)
	icg := spec.InC / groups
	ocg := spec.OutC / groups
	k := icg * spec.KH * spec.KW
	plane := oh * ow
	for g := 0; g < groups; g++ {
		wp := packScratchQ(w.Data[g*ocg*k:(g+1)*ocg*k], ocg, k, spec.KH*spec.KW)
		src := newQConvB([]*Tensor{x}, 1/xScale, spec, g*icg, k, oh, ow)
		gemmStripesQ(out.Data[g*ocg*plane:(g+1)*ocg*plane], plane, &wp, src, convQScales(w, xScale, g, ocg), Epilogue{}, 0, false)
		src.release()
		wp.release()
	}
	addBias(out.Data, bias, spec.OutC, plane)
	return out
}
