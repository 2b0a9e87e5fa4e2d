package tensor

import "math"

// conv2DRef is the reference conv lowering — materialised im2col +
// MatMulInto per group — the oracle the implicit-im2col packed convs are
// compared against. Nothing outside the tests lowers a conv this way.
func conv2DRef(x, w, bias *Tensor, spec ConvSpec) *Tensor {
	groups, oh, ow := spec.check("conv2DRef", x)
	icg, ocg := spec.InC/groups, spec.OutC/groups
	k, plane := icg*spec.KH*spec.KW, oh*ow
	out := New(spec.OutC, oh, ow)
	cols := New(k, plane)
	for g := 0; g < groups; g++ {
		Im2ColInto(x, cols, spec, g*icg, icg, oh, ow, 0, plane)
		MatMulInto(FromSlice(out.Data[g*ocg*plane:(g+1)*ocg*plane], ocg, plane),
			FromSlice(w.Data[g*ocg*k:(g+1)*ocg*k], ocg, k), cols)
	}
	addBias(out.Data, bias, spec.OutC, plane)
	return out
}

// conv2DQRef is the int8 twin: materialised quantizing im2col +
// MatMulInt8Into per group.
func conv2DQRef(x *Tensor, w *QTensor, bias *Tensor, spec ConvSpec, xScale float32) *Tensor {
	groups, oh, ow := spec.check("conv2DQRef", x)
	icg, ocg := spec.InC/groups, spec.OutC/groups
	k, plane := icg*spec.KH*spec.KW, oh*ow
	out := New(spec.OutC, oh, ow)
	colsQ := QFromSlice(make([]int8, k*plane), nil, k, plane)
	for g := 0; g < groups; g++ {
		Im2ColQInto(x, colsQ.Data, 1/xScale, spec, g*icg, icg, oh, ow, 0, plane)
		MatMulInt8Into(FromSlice(out.Data[g*ocg*plane:(g+1)*ocg*plane], ocg, plane),
			QFromSlice(w.Data[g*ocg*k:(g+1)*ocg*k], nil, ocg, k), colsQ, convQScales(w, xScale, g, ocg))
	}
	addBias(out.Data, bias, spec.OutC, plane)
	return out
}

// convPackedQOne is one sample through ConvPackedQBatchInto — the
// per-sample int8 route — checked when check is set.
func convPackedQOne(dst *Tensor, wp *PackedQ, x *Tensor, spec ConvSpec, c0, oh, ow int, inv float32, rowScale []float32, ep Epilogue, chanOff int, check bool) bool {
	var bad []bool
	if check {
		bad = make([]bool, 1)
	}
	return ConvPackedQBatchInto([]*Tensor{dst}, wp, []*Tensor{x}, spec, c0, oh, ow, inv, rowScale, ep, chanOff, bad)
}

// gemmAsConv is the 1×1 convolution that computes an m×k × k×n GEMM: B's
// rows are the channels of a 1×n plane. The ABFT properties of the shared
// drivers are tested through it, on the entry points every conv takes.
func gemmAsConv(m, k int) ConvSpec {
	return ConvSpec{InC: k, OutC: m, KH: 1, KW: 1, StrideH: 1, StrideW: 1}
}

// gemmCheckF32 is the checked dst = A×B (+ epilogue) as that conv.
func gemmCheckF32(dst, a, b *Tensor, ep Epilogue) bool {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	return ConvPackedCheckInto(dst, PackWeights(a), FromSlice(b.Data, k, 1, n), gemmAsConv(m, k), 0, 1, n, ep, 0)
}

// gemmCheckQ is the int8 twin. The conv quantizes its input on the way
// in; B's int8 values as floats at inverse scale 1 come back unchanged.
func gemmCheckQ(dst *Tensor, a, b *QTensor, rowScale []float32, ep Epilogue) bool {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	x := New(k, 1, n)
	for i, v := range b.Data {
		x.Data[i] = float32(v)
	}
	return convPackedQOne(dst, PackWeightsQ(a.Data, m, k, 1), x, gemmAsConv(m, k), 0, 1, n, 1, rowScale, ep, 0, true)
}

// The per-element loops the row kernels (rowops.go) replaced, kept as
// the oracles of rowops_test.go: the affine, bias, ReLU, add and pooling
// loops must be reproduced bit for bit; the math.Exp logistic is what
// the new definition's drift is measured against.

// refLogisticDenom is 1 + e^(−v) as the old SiLU and sigmoid lines had it.
func refLogisticDenom(v float32) float32 {
	return 1 + float32(math.Exp(float64(-v)))
}

// refApplyCols is Epilogue.applyCols as it stood before the row kernels.
func refApplyCols(ep Epilogue, data []float32, r0, r1, w, j0, j1, chanOff int) {
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
				row[i] = v / refLogisticDenom(v)
			}
		case EpActReLU:
			for i, v := range row {
				if v < 0 {
					row[i] = 0
				}
			}
		case EpActSigmoid:
			for i, v := range row {
				row[i] = 1 / refLogisticDenom(v)
			}
		}
	}
}

// goEpilogue is the epilogue's Go form, the oracle of every kernel that
// applies one: refApplyCols' affine, bias and ReLU loops, and for SiLU and
// sigmoid the affine followed by the logistic definition (rowops.go).
func goEpilogue(ep Epilogue, data []float32, r0, r1, w, j0, j1, chanOff int) {
	act := ep.Act
	if act == EpActSiLU || act == EpActSigmoid {
		ep.Act = EpActNone
	}
	refApplyCols(ep, data, r0, r1, w, j0, j1, chanOff)
	if act != ep.Act {
		for r := r0; r < r1; r++ {
			rowActGo(data[r*w+j0:r*w+j1], act)
		}
	}
}

// refAdd is Tensor.Add's old loop.
func refAdd(dst, src []float32) {
	for i, v := range src {
		dst[i] += v
	}
}

// refMaxPoolChan is maxPoolChan as it stood: one (ky, kx) scan per
// output.
func refMaxPoolChan(dst, x *Tensor, ci, k, stride, pad int) {
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
