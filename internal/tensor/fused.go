package tensor

import "fmt"

// This file holds the fused epilogue of the plan executor's convs (see
// internal/nn's Plan) and the caller-owned-buffer forms of its other
// ops: a conv GEMM finishes each output stripe with the folded BatchNorm
// affine (or conv bias) and the activation applied while the stripe is
// still cache-hot, so the interpreter's two extra full-tensor sweeps
// (BatchNormInference, then the activation) never touch memory. Every
// epilogue replicates the interpreter's float32 expressions operation
// for operation, which is what keeps the planned fp32 path bit-exact
// against the unfused kernels.

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
// completes. The whole stripe goes to the tier's row kernel in one call
// where one is bound; its lanes and the loops below perform the same
// float32 operations (rowops.go), so stripe-wise and row-wise, vector
// and scalar application agree bit for bit.
func (ep Epilogue) applyCols(data []float32, r0, r1, w, j0, j1, chanOff int) {
	if r0 >= r1 || j0 >= j1 || !ep.hasWork() {
		return
	}
	if kernRows != nil {
		blk := data[r0*w+j0 : (r1-1)*w+j1]
		scale, shift := ep.rowPtrs(chanOff+r0, chanOff+r1)
		kernRows.epilogue(&blk[0], r1-r0, w, j1-j0, scale, shift, ep.Act, nil, 0, nil, nil)
		return
	}
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
		rowActGo(row, ep.Act)
	}
}

// rowPtrs returns the row kernel's scale and shift pointers for channels
// [c0, c1): nil where the epilogue has none.
func (ep Epilogue) rowPtrs(c0, c1 int) (scale, shift *float32) {
	if ep.Scale != nil {
		scale = &ep.Scale[c0:c1][0]
	}
	if ep.Shift != nil {
		shift = &ep.Shift[c0:c1][0]
	}
	return scale, shift
}

// PoolOutSize returns the output dims of a k×k max pool over an h×w
// plane, panicking on a geometry some of whose windows would see no
// input at all: a kernel larger than the padded plane, or padding as
// wide as the kernel. (Go's toward-zero division would otherwise make
// (h+2·pad−k)/stride + 1 a 1×1 plane of the empty-window sentinel.)
func PoolOutSize(h, w, k, stride, pad int) (oh, ow int) {
	if pad >= k || k > h+2*pad || k > w+2*pad {
		panic(fmt.Sprintf("tensor: %dx%d max pool, pad %d, over a %dx%d plane: some window would lie wholly in the padding", k, k, pad, h, w))
	}
	return (h+2*pad-k)/stride + 1, (w+2*pad-k)/stride + 1
}

// MaxPool2DInto is MaxPool2D writing into a caller-owned dst of shape
// [C, oh, ow] — the allocation-free form the plan executor binds
// against arena slots.
func MaxPool2DInto(dst, x *Tensor, k, stride, pad int) {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	oh, ow := PoolOutSize(h, w, k, stride, pad)
	if dst.Shape[0] != c || dst.Shape[1] != oh || dst.Shape[2] != ow {
		panic(fmt.Sprintf("tensor: MaxPool2DInto dst %v, want [%d %d %d]", dst.Shape, c, oh, ow))
	}
	var tapArr [8]poolTap // kernels up to 8 wide stay on the stack
	taps := poolTaps(tapArr[:0], w, ow, k, stride, pad)
	for ci := 0; ci < c; ci++ {
		maxPoolChan(dst, x, ci, k, stride, pad, taps)
	}
}

// poolTap is one kernel column kx of a pooling window, as a run: outputs
// [lo, hi) of a row are the ones whose tap falls inside the plane, and
// output ox reads element at+ox of the input row's phase block. Tap kx
// of output ox is column ox·stride + kx − pad; with a row split into its
// stride phases (phase p holds columns ≡ p mod stride, pw of them) that
// is element ox + q of phase p, where kx − pad = q·stride + p — a
// contiguous run.
type poolTap struct{ lo, hi, at int }

func poolTaps(taps []poolTap, w, ow, k, stride, pad int) []poolTap {
	pw := (w + stride - 1) / stride
	for kx := 0; kx < k; kx++ {
		// Outputs [lo, hi): the ones whose column ox·stride + kx − pad is
		// in [0, w).
		lo := min(max(pad-kx+stride-1, 0)/stride, ow)
		hi := max(min((w-1-kx+pad+stride)/stride, ow), lo)
		q := (kx-pad+pad*stride)/stride - pad // floor((kx − pad) / stride)
		p := kx - pad - q*stride
		taps = append(taps, poolTap{lo: lo, hi: hi, at: p*pw + q})
	}
	return taps
}

// maxPoolChan pools one channel of MaxPool2DInto. Each output row
// starts at the empty-window sentinel and is raised tap by tap, in
// (ky, kx) order, by rowMax over the tap's run of outputs: every output
// sees its taps in the order a per-output scan would, so the result is
// that scan's. At stride 1 a tap's run reads the input row itself;
// otherwise the channel's rows are split into their phases once, in
// pooled scratch.
func maxPoolChan(dst, x *Tensor, ci, k, stride, pad int, taps []poolTap) {
	h, w := x.Shape[1], x.Shape[2]
	oh, ow := dst.Shape[1], dst.Shape[2]
	src := x.Data[ci*h*w : (ci+1)*h*w]
	out := dst.Data[ci*oh*ow : (ci+1)*oh*ow]
	rows, rowLen := src, w // row iy's phase block is rows[iy·rowLen:][:rowLen]
	if stride > 1 {
		pw := (w + stride - 1) / stride
		rowLen = stride * pw
		rows = Scratch.GetRaw(h * rowLen)
		for iy := 0; iy < h; iy++ {
			srow := src[iy*w : (iy+1)*w]
			for p := 0; p < stride; p++ {
				ph := rows[iy*rowLen+p*pw:]
				for j, i := 0, p; i < w; j, i = j+1, i+stride {
					ph[j] = srow[i]
				}
			}
		}
	}
	for oy := 0; oy < oh; oy++ {
		best := out[oy*ow : (oy+1)*ow]
		for i := range best {
			best[i] = negInf
		}
		for ky := 0; ky < k; ky++ {
			iy := oy*stride - pad + ky
			if iy < 0 || iy >= h {
				continue
			}
			row := rows[iy*rowLen : (iy+1)*rowLen]
			for _, t := range taps {
				if t.lo < t.hi {
					rowMax(best[t.lo:t.hi], row[t.at+t.lo:])
				}
			}
		}
	}
	if stride > 1 {
		Scratch.PutRaw(rows)
	}
}

// UpsampleNearest2xInto is UpsampleNearest2x writing into a
// caller-owned dst of shape [C, 2H, 2W].
func UpsampleNearest2xInto(dst, x *Tensor) {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	if dst.Shape[0] != c || dst.Shape[1] != h*2 || dst.Shape[2] != w*2 {
		panic(fmt.Sprintf("tensor: UpsampleNearest2xInto dst %v, want [%d %d %d]", dst.Shape, c, h*2, w*2))
	}
	for ci := 0; ci < c; ci++ {
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
	const bs = 32 // blocked for cache friendliness
	for i0 := 0; i0 < m; i0 += bs {
		i1 := i0 + bs
		if i1 > m {
			i1 = m
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
