package tensor

import "math"

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
