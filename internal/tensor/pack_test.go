package tensor

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"ocularone/internal/rng"
)

// TestPackedGEMMParity pins the packed register-blocked kernel against
// the reference ikj kernel at adversarial shapes: m/n/k off the tile
// grid, k below and above the kc block, single tiles, and single-row
// edges. Non-FMA tiers must match bit for bit; FMA tiers are held to
// the per-element γ_k drift bound (gemmTolerances).
func TestPackedGEMMParity(t *testing.T) {
	shapes := [][3]int{
		{4, 16, 8},    // exactly one tile
		{5, 16, 9},    // +1 edges on m and n
		{7, 33, 23},   // everything ragged
		{4, 256, 8},   // k == kc exactly
		{4, 257, 8},   // k one past the kc block
		{12, 600, 40}, // multiple kc blocks, ragged k tail
		{64, 576, 100},
		{129, 31, 257},
		{6, 1000, 8},
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := randTensor(rng.New(uint64(m*k+n)), m, k)
			b := randTensor(rng.New(uint64(k*n+m)), k, n)
			want := New(m, n)
			matMulRefInto(want, a, b)
			got := New(m, n)
			for i := range got.Data {
				got.Data[i] = 99 // packed path must fully overwrite
			}
			matMulPackedInto(got, a, b, Epilogue{}, 0)
			cmpTol(t, "packed vs reference", got.Data, want.Data, gemmTolerances(a, b))
		})
	}
}

// TestPackedGEMMEpilogueParity pins the packed kernel's fused epilogue
// (per column stripe) bit-exact against the same packed GEMM followed
// by the row-wise epilogue at ragged shapes, for each activation —
// fusing must not change the epilogue's op chain on any tier.
func TestPackedGEMMEpilogueParity(t *testing.T) {
	const m, k, n = 13, 300, 43
	a := randTensor(rng.New(3), m, k)
	b := randTensor(rng.New(4), k, n)
	scale := make([]float32, m)
	shift := make([]float32, m)
	r := rng.New(5)
	for i := range scale {
		scale[i] = r.Float32() + 0.5
		shift[i] = r.Float32() - 0.5
	}
	for _, act := range []EpAct{EpActNone, EpActSiLU, EpActReLU, EpActSigmoid} {
		ep := Epilogue{Scale: scale, Shift: shift, Act: act}
		want := New(m, n)
		matMulPackedInto(want, a, b, Epilogue{}, 0)
		ep.apply(want.Data, 0, m, n, 0)
		got := New(m, n)
		matMulPackedInto(got, a, b, ep, 0)
		for i := range got.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("act %d elem %d: fused %v != reference %v", act, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestPackedGEMMInt8Parity pins the PMADDWD-pair int8 kernel exactly
// against the reference int8 tiles: odd k (pair padding), ragged rows
// and columns, and k past the fp32 kc block (the int8 driver is
// unblocked). Integer accumulation is exact, so equality is strict.
func TestPackedGEMMInt8Parity(t *testing.T) {
	shapes := [][3]int{
		{4, 16, 8},
		{5, 17, 9},  // odd k: zero-padded pair tail
		{7, 33, 23}, // everything ragged
		{12, 577, 40},
		{64, 576, 100},
		{6, 999, 8},
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := QuantizePerChannel(randTensor(rng.New(uint64(m+k)), m, k))
			b := QuantizeSymmetric(randTensor(rng.New(uint64(n+k)), k, n))
			rowScale := make([]float32, m)
			for i := range rowScale {
				rowScale[i] = a.ScaleFor(i) * b.Scales[0]
			}
			want := New(m, n)
			refInt8Into(want, a, b, rowScale)
			got := New(m, n)
			matMulInt8PackedInto(got, a, b, rowScale, Epilogue{}, 0)
			for i := range got.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("elem %d: packed int8 %v != reference %v", i, got.Data[i], want.Data[i])
				}
			}
		})
	}
}

// refInt8Into runs the retained reference int8 tile kernel regardless
// of shape (the packed-threshold check in MatMulInt8Into would route
// large shapes away from it).
func refInt8Into(dst *Tensor, a, b *QTensor, rowScale []float32) {
	matMulInt8RefInto(dst, a, b, rowScale, Epilogue{}, 0)
}

// convPackedForce runs the implicit-im2col fp32 path the way the plan
// does — weights prepacked per group, ConvPackedInto — where Conv2D
// packs them per call.
func convPackedForce(x, w, bias *Tensor, spec ConvSpec) *Tensor {
	groups := spec.Groups
	if groups <= 0 {
		groups = 1
	}
	icg, ocg := spec.InC/groups, spec.OutC/groups
	k := icg * spec.KH * spec.KW
	oh, ow := spec.OutSize(x.Shape[1], x.Shape[2])
	plane := oh * ow
	out := New(spec.OutC, oh, ow)
	for g := 0; g < groups; g++ {
		wp := PackWeights(FromSlice(w.Data[g*ocg*k:(g+1)*ocg*k], ocg, k))
		dst := FromSlice(out.Data[g*ocg*plane:(g+1)*ocg*plane], ocg, plane)
		ConvPackedInto(dst, wp, x, spec, g*icg, oh, ow, Epilogue{}, 0)
	}
	addBias(out.Data, bias, spec.OutC, plane)
	return out
}

// convPackedQForce is the int8 twin of convPackedForce.
func convPackedQForce(x *Tensor, w *QTensor, spec ConvSpec, xScale float32) *Tensor {
	groups := spec.Groups
	if groups <= 0 {
		groups = 1
	}
	icg, ocg := spec.InC/groups, spec.OutC/groups
	k := icg * spec.KH * spec.KW
	oh, ow := spec.OutSize(x.Shape[1], x.Shape[2])
	plane := oh * ow
	out := New(spec.OutC, oh, ow)
	for g := 0; g < groups; g++ {
		qp := PackWeightsQ(w.Data[g*ocg*k:(g+1)*ocg*k], ocg, k, spec.KH*spec.KW)
		dst := FromSlice(out.Data[g*ocg*plane:(g+1)*ocg*plane], ocg, plane)
		convPackedQOne(dst, qp, x, spec, g*icg, oh, ow, 1/xScale, convQScales(w, xScale, g, ocg), Epilogue{}, 0, false)
	}
	return out
}

// convParityCase is one adversarial convolution shape for the
// implicit-im2col parity suite.
type convParityCase struct {
	name string
	spec ConvSpec
	h, w int
}

func convParityCases() []convParityCase {
	return []convParityCase{
		{"3x3 dense", ConvSpec{InC: 16, OutC: 24, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 20, 20},
		{"1x1", ConvSpec{InC: 32, OutC: 16, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, 13, 17},
		{"stride 2", ConvSpec{InC: 16, OutC: 20, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, 23, 19},
		{"grouped", ConvSpec{InC: 16, OutC: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 2}, 15, 15},
		{"dilated", ConvSpec{InC: 8, OutC: 12, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2, DilationH: 2, DilationW: 2}, 21, 21},
		{"no pad", ConvSpec{InC: 12, OutC: 8, KH: 5, KW: 5, StrideH: 1, StrideW: 1}, 24, 24},
		{"asymmetric stride", ConvSpec{InC: 16, OutC: 16, KH: 3, KW: 3, StrideH: 2, StrideW: 1, PadH: 1, PadW: 1}, 17, 31},
		{"deep k", ConvSpec{InC: 64, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 12, 12}, // k=576 > kc
		{"ow 7 sliver wrap", ConvSpec{InC: 16, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 9, 7},
	}
}

// TestConvImplicitParity pins the implicit-im2col packed convolution
// against the materialised-cols reference at adversarial specs (1×1,
// grouped, stride, dilation, pad edges, k spanning the kc block,
// output widths that wrap mid-sliver), with and without bias:
// bit-exact on non-FMA tiers, drift-bounded on FMA tiers (the
// reference may route below the packed threshold to the scalar
// kernel, which rounds differently from fused chains).
func TestConvImplicitParity(t *testing.T) {
	for ci, tc := range convParityCases() {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(uint64(100 + ci))
			x := randTensor(r, tc.spec.InC, tc.h, tc.w)
			groups := tc.spec.Groups
			if groups <= 0 {
				groups = 1
			}
			w := randTensor(r, tc.spec.OutC, tc.spec.InC/groups, tc.spec.KH, tc.spec.KW)
			bias := randTensor(r, tc.spec.OutC)
			for _, b := range []*Tensor{nil, bias} {
				got := convPackedForce(x, w, b, tc.spec)
				want := conv2DRef(x, w, b, tc.spec)
				if !got.SameShape(want) {
					t.Fatalf("shape %v, want %v", got.Shape, want.Shape)
				}
				cmpTol(t, fmt.Sprintf("bias=%v", b != nil), got.Data, want.Data,
					convTolerances(x, w, b, tc.spec))
			}
		})
	}
}

// TestConvImplicitQParity is the int8 twin: the implicit, quantizing
// im2col path against the materialised reference, bit for bit.
func TestConvImplicitQParity(t *testing.T) {
	for ci, tc := range convParityCases() {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(uint64(200 + ci))
			x := randTensor(r, tc.spec.InC, tc.h, tc.w)
			groups := tc.spec.Groups
			if groups <= 0 {
				groups = 1
			}
			w := randTensor(r, tc.spec.OutC, tc.spec.InC/groups, tc.spec.KH, tc.spec.KW)
			qw := QuantizePerChannel(w)
			const xScale = 1.0 / 127
			got := convPackedQForce(x, qw, tc.spec, xScale)
			want := conv2DQRef(x, qw, nil, tc.spec, xScale)
			for i := range got.Data {
				if got.Data[i] != want.Data[i] {
					t.Fatalf("elem %d: implicit int8 %v != reference %v", i, got.Data[i], want.Data[i])
				}
			}
		})
	}
}

// gatherCase is one convolution geometry for the panel-gather oracle.
type gatherCase struct {
	name string
	spec ConvSpec
	h, w int
}

// gatherCases are the geometries that bend the run-segment gathers:
// kernels 1/3/5/7 and non-square, strides 1-3, dilation, padding up to
// and past kernel/2, groups (c0 > 0, odd k), h != w, and output rows
// narrower than any tier's NR so one panel spans several of them.
func gatherCases() []gatherCase {
	cases := []gatherCase{
		{"3x3 same", ConvSpec{InC: 4, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 13, 17},
		{"1x1", ConvSpec{InC: 5, OutC: 4, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, 9, 11},
		{"1x1 stride 2", ConvSpec{InC: 4, OutC: 4, KH: 1, KW: 1, StrideH: 2, StrideW: 2}, 12, 10},
		{"5x5 pad 2", ConvSpec{InC: 3, OutC: 4, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}, 11, 14},
		{"7x7 stride 2 stem", ConvSpec{InC: 3, OutC: 4, KH: 7, KW: 7, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}, 19, 23},
		{"1x5 kernel", ConvSpec{InC: 4, OutC: 4, KH: 1, KW: 5, StrideH: 1, StrideW: 1, PadW: 2}, 8, 15},
		{"3x1 kernel stride 1x2", ConvSpec{InC: 4, OutC: 4, KH: 3, KW: 1, StrideH: 1, StrideW: 2, PadH: 1}, 10, 13},
		{"stride 3", ConvSpec{InC: 4, OutC: 4, KH: 3, KW: 3, StrideH: 3, StrideW: 3, PadH: 1, PadW: 1}, 20, 22},
		{"dilation 2", ConvSpec{InC: 4, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2, DilationH: 2, DilationW: 2}, 12, 12},
		{"dilation 2 stride 2", ConvSpec{InC: 4, OutC: 4, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 3, DilationH: 2, DilationW: 2}, 15, 11},
		{"pad past kernel/2", ConvSpec{InC: 4, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 3, PadW: 3}, 6, 7},
		{"pad 3 stride 2 on 2x2", ConvSpec{InC: 4, OutC: 4, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}, 2, 2},
		{"groups 3, odd k", ConvSpec{InC: 9, OutC: 12, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 3}, 7, 9},
		{"ow 5", ConvSpec{InC: 6, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 9, 5},
		{"ow 3 stride 2", ConvSpec{InC: 6, OutC: 4, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, 12, 6},
		// OutSize truncates (2+2-4-1)/2 to 0, so this kernel, one row taller
		// than the padded input, still yields an output row (found by the fuzz).
		{"kernel taller than padded input", ConvSpec{InC: 4, OutC: 4, KH: 5, KW: 2, StrideH: 2, StrideW: 1, PadH: 1, PadW: 2, DilationW: 2}, 2, 20},
		{"ow 1", ConvSpec{InC: 4, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1}, 40, 3},
		// The same truncation on the right, and with no padding at all: the
		// border is wider than the padding, or there where none was asked for.
		{"kernel wider than padded input", ConvSpec{InC: 4, OutC: 4, KH: 2, KW: 5, StrideH: 1, StrideW: 2, PadH: 2, PadW: 1, DilationH: 2}, 20, 2},
		{"unpadded kernel past the plane", ConvSpec{InC: 4, OutC: 4, KH: 3, KW: 3, StrideH: 2, StrideW: 2}, 2, 6},
		// Padding past the kernel's reach: whole k rows of the first and last
		// output rows and columns lie in the border.
		{"pad 3 around a 2x2 kernel", ConvSpec{InC: 4, OutC: 4, KH: 2, KW: 2, StrideH: 1, StrideW: 1, PadH: 3, PadW: 3}, 5, 6},
		{"pad 3 around a 1x1 kernel stride 2", ConvSpec{InC: 4, OutC: 4, KH: 1, KW: 1, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}, 7, 4},
	}
	return append(cases, owOneCases(4, 4)...)
}

// owOneCases are convs whose output is one column wide and taller than
// the widest panel of any tier, at stride 1 and 2: every column of a
// panel is an output row of its own, so a panel of panelSegMax columns
// is cut into panelSegMax segments — the bound of the segment array.
func owOneCases(inC, outC int) []gatherCase {
	oh := panelSegMax + 12
	return []gatherCase{
		{"ow 1, a segment a column", ConvSpec{InC: inC, OutC: outC, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, oh, 1},
		{"ow 1 stride 2, a segment a column", ConvSpec{InC: inC, OutC: outC, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, 2 * oh, 1},
	}
}

// checkPanelGather compares both conv B sources element by element
// with the retained im2colRow / im2colQRow unroll on the selected tier:
// every group, the driver's own panel windows (fp32: at the tier's
// width and at the narrow tile's) plus random ones that start and end
// mid-row (j0, jw < NR) and mid-channel (k0, kc), and the zero fill of
// columns >= jw and of the int8 pad channels (a zero is stored as the
// tier's qFlip, like every int8 activation). The int8 sliver's depth is
// in the packed order: step d holds im2col row sliverRowQ(d).
func checkPanelGather(t *testing.T, spec ConvSpec, h, w int, seed uint64) {
	t.Helper()
	groups := spec.Groups
	if groups <= 0 {
		groups = 1
	}
	oh, ow := spec.OutSize(h, w)
	icg := spec.InC / groups
	k, n := icg*spec.KH*spec.KW, oh*ow
	r := rng.New(seed)
	x := randTensor(r, spec.InC, h, w)
	const inv = 100 // |x|·inv reaches 100: most of the int8 range
	pick := func(lim int) int { return int(r.Uint64() % uint64(lim)) }
	for g := 0; g < groups; g++ {
		c0 := g * icg
		cols := New(k, n)
		colsQ := make([]int8, k*n)
		for row := 0; row < k; row++ {
			im2colRow(x, cols, spec, c0, row, oh, ow, 0, n)
			im2colQRow(x, colsQ, inv, spec, c0, row, oh, ow, 0, n)
		}

		fsrc := newF32ConvB(x, spec, c0, icg, oh, ow)
		// A dirty pool, as for the int8 copy below: a bordered copy goes
		// back full of NaN and is drawn again, so a border float that
		// newF32ConvB leaves alone fails every == it meets.
		if fsrc.pooled {
			for i := range fsrc.src {
				fsrc.src[i] = float32(math.NaN())
			}
			fsrc.release()
			fsrc = newF32ConvB(x, spec, c0, icg, oh, ow)
		}
		fbuf := make([]float32, gemmKC*gemmNRMax)
		checkF := func(nr, k0, kc, j0, jw int) {
			for i := range fbuf {
				fbuf[i] = 7
			}
			fsrc.pack(fbuf, nr, k0, kc, j0, jw)
			for kk := 0; kk < kc; kk++ {
				for jj := 0; jj < nr; jj++ {
					var want float32
					if jj < jw {
						want = cols.Data[(k0+kk)*n+j0+jj]
					}
					if got := fbuf[kk*nr+jj]; got != want {
						t.Fatalf("group %d fp32 panel nr=%d k0=%d kc=%d j0=%d jw=%d: row %d col %d = %v, want %v",
							g, nr, k0, kc, j0, jw, kk, jj, got, want)
					}
				}
			}
		}
		kq, flip := qK, qFlip(qK)
		taps := spec.KH * spec.KW
		kg := (icg + kq - 1) / kq * taps
		qsrc := newQConvB([]*Tensor{x}, inv, spec, c0, k, oh, ow)
		// A dirty pool: the copy goes back full of 0x7f and the gather under
		// test draws it again, so a border byte or a pad-channel byte that
		// newQConvB leaves alone shows up in a sliver below.
		for i := range qsrc.q {
			qsrc.q[i] = 0x7f
		}
		qsrc.release()
		qsrc = newQConvB([]*Tensor{x}, inv, spec, c0, k, oh, ow)
		qbuf := make([]int8, kg*kq*qNR)
		checkQ := func(j0, jw int) {
			for i := range qbuf {
				qbuf[i] = 7
			}
			qsrc.pack(qbuf, j0, jw)
			for d := 0; d < kg*kq; d++ {
				row := sliverRowQ(d, icg, taps, kq)
				for jj := 0; jj < qNR; jj++ {
					var want int8
					if row >= 0 && jj < jw {
						want = colsQ[row*n+j0+jj]
					}
					want ^= flip
					if got := qbuf[(d/kq)*kq*qNR+jj*kq+d%kq]; got != want {
						t.Fatalf("group %d int8 sliver j0=%d jw=%d: depth %d (im2col row %d) col %d = %d, want %d",
							g, j0, jw, d, row, jj, got, want)
					}
				}
			}
		}
		for _, nr := range []int{gemmNR, narrowNR} {
			for j0 := 0; j0 < n; j0 += nr {
				for k0 := 0; k0 < k; k0 += gemmKC {
					checkF(nr, k0, min(gemmKC, k-k0), j0, min(nr, n-j0))
				}
			}
		}
		for j0 := 0; j0 < n; j0 += qNR {
			checkQ(j0, min(qNR, n-j0))
		}
		for i := 0; i < 12; i++ {
			k0, j0 := pick(k), pick(n)
			nr := []int{gemmNR, narrowNR}[i%2]
			checkF(nr, k0, 1+pick(min(gemmKC, k-k0)), j0, 1+pick(min(nr, n-j0)))
			j0 = pick(n)
			checkQ(j0, 1+pick(min(qNR, n-j0)))
		}
		qsrc.release()
		fsrc.release()
	}
}

// TestConvPanelGather runs the gather oracle over gatherCases on every
// tier's panel widths.
func TestConvPanelGather(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier string) {
		for ci, tc := range gatherCases() {
			t.Run(tc.name, func(t *testing.T) {
				checkPanelGather(t, tc.spec, tc.h, tc.w, uint64(900+ci))
			})
		}
	})
}

// FuzzConvPanelGather draws the geometry itself: every byte folds into
// its field's range, shapes with an empty output are skipped.
func FuzzConvPanelGather(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(3), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(4), uint8(12), uint8(12))
	f.Add(uint64(2), uint8(7), uint8(7), uint8(2), uint8(2), uint8(1), uint8(1), uint8(3), uint8(3), uint8(1), uint8(3), uint8(21), uint8(17))
	f.Add(uint64(3), uint8(1), uint8(5), uint8(3), uint8(1), uint8(2), uint8(2), uint8(0), uint8(3), uint8(2), uint8(3), uint8(9), uint8(30))
	f.Add(uint64(4), uint8(3), uint8(2), uint8(1), uint8(3), uint8(2), uint8(1), uint8(3), uint8(0), uint8(3), uint8(1), uint8(5), uint8(4))
	// Padding at stride 2 and dilation 2: the bordered copy's strided reads.
	f.Add(uint64(5), uint8(2), uint8(2), uint8(1), uint8(1), uint8(1), uint8(1), uint8(2), uint8(2), uint8(0), uint8(3), uint8(16), uint8(12))
	f.Add(uint64(6), uint8(4), uint8(2), uint8(1), uint8(1), uint8(1), uint8(1), uint8(3), uint8(1), uint8(1), uint8(2), uint8(22), uint8(18))
	f.Add(uint64(7), uint8(1), uint8(6), uint8(1), uint8(1), uint8(1), uint8(1), uint8(1), uint8(3), uint8(2), uint8(1), uint8(8), uint8(29))
	// Stride 2 across the gather kernel's turns: output rows of 5, 8, 9 and
	// 13 (a four, an eight, an eight and one, an eight, a four and one),
	// from the bordered copy (3×3 pad 1) and from the view (1×1).
	for i, w := range []uint8{9, 15, 17, 25} {
		f.Add(uint64(8+i), uint8(2), uint8(2), uint8(1), uint8(1), uint8(0), uint8(0), uint8(1), uint8(1), uint8(0), uint8(3), uint8(6), w-1)
		f.Add(uint64(12+i), uint8(0), uint8(0), uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0), uint8(3), uint8(6), w-1)
	}
	// Output one column wide and taller than the widest panel, stride 1
	// and 2: a segment a panel column (owOneCases).
	f.Add(uint64(16), uint8(2), uint8(2), uint8(0), uint8(0), uint8(0), uint8(0), uint8(1), uint8(1), uint8(0), uint8(3), uint8(59), uint8(0))
	f.Add(uint64(17), uint8(2), uint8(2), uint8(1), uint8(1), uint8(0), uint8(0), uint8(1), uint8(1), uint8(0), uint8(3), uint8(119), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, kh, kw, sh, sw, dh, dw, ph, pw, groups, icg, h, w uint8) {
		g := 1 + int(groups%3)
		spec := ConvSpec{
			InC: g * (1 + int(icg%4)), OutC: 4 * g, Groups: g,
			KH: 1 + int(kh%7), KW: 1 + int(kw%7),
			StrideH: 1 + int(sh%3), StrideW: 1 + int(sw%3),
			DilationH: 1 + int(dh%2), DilationW: 1 + int(dw%2),
			PadH: int(ph % 4), PadW: int(pw % 4),
		}
		hh, ww := 1+int(h%128), 1+int(w%40)
		if oh, ow := spec.OutSize(hh, ww); oh <= 0 || ow <= 0 {
			t.Skip()
		}
		forEachTier(t, func(t *testing.T, tier string) {
			checkPanelGather(t, spec, hh, ww, seed)
		})
	})
}

// TestF32ConvBViewWhenUnpadded pins the view-or-copy rule to the conv's
// geometry: a conv that never reads outside its planes gathers from the
// input itself — the source aliases x.Data at the group's first channel
// and nothing is drawn from Scratch — and the same kernel with padding
// gathers from a pooled copy.
func TestF32ConvBViewWhenUnpadded(t *testing.T) {
	saved := Scratch
	defer func() { Scratch = saved }()
	x := randTensor(rng.New(5), 6, 10, 12)
	for _, tc := range []struct {
		name   string
		spec   ConvSpec
		pooled bool
	}{
		{"1x1", ConvSpec{InC: 6, OutC: 4, KH: 1, KW: 1, StrideH: 1, StrideW: 1, Groups: 2}, false},
		{"1x1 stride 2", ConvSpec{InC: 6, OutC: 4, KH: 1, KW: 1, StrideH: 2, StrideW: 2, Groups: 2}, false},
		{"3x3 pad 0", ConvSpec{InC: 6, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, Groups: 2}, false},
		{"3x3 pad 1", ConvSpec{InC: 6, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 2}, true},
	} {
		Scratch = NewPool()
		oh, ow := tc.spec.OutSize(10, 12)
		src := newF32ConvB(x, tc.spec, 3, 3, oh, ow)
		if aliases := &src.src[0] == &x.Data[3*10*12]; aliases == tc.pooled || src.pooled != tc.pooled {
			t.Errorf("%s: source aliases x.Data: %v, pooled: %v; want pooled %v", tc.name, aliases, src.pooled, tc.pooled)
		}
		src.release()
		if drawn := len(Scratch.raw.free) > 0; drawn != tc.pooled {
			t.Errorf("%s: Scratch drawn from: %v, want %v", tc.name, drawn, tc.pooled)
		}
	}
}

// TestConvPackedRefusesOperands pins that the fp32 conv entry points
// trust none of their operands: a dst of another shape, weights of a
// depth that is not whole channels of the kernel, a channel range that
// leaves the input and output dims that are not the spec's are each
// refused by a panic that names the entry point and the mismatch, where
// they used to gather the wrong rows in silence.
func TestConvPackedRefusesOperands(t *testing.T) {
	spec := ConvSpec{InC: 8, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 2}
	const side, m, icg = 6, 4, 4
	x := New(8, side, side)
	good := PackWeights(New(m, icg*9))
	for _, tc := range []struct {
		name       string
		dst        *Tensor
		wp         *PackedA
		c0, oh, ow int
		parts      []string
	}{
		{"dst", New(m, side*side+1), good, 0, side, side, []string{"dst", "[4 37]", "[4 36]"}},
		{"depth", New(m, side*side), PackWeights(New(m, icg*9+1)), 0, side, side, []string{"k=37", "3x3", "9 taps"}},
		{"channels", New(m, side*side), good, 5, side, side, []string{"channels [5, 9)", "input of 8"}},
		{"output", New(m, side*(side-1)), good, 4, side - 1, side, []string{"output 5x6", "gives 6x6"}},
	} {
		for fn, run := range map[string]func(){
			"ConvPackedInto":      func() { ConvPackedInto(tc.dst, tc.wp, x, spec, tc.c0, tc.oh, tc.ow, Epilogue{}, 0) },
			"ConvPackedCheckInto": func() { ConvPackedCheckInto(tc.dst, tc.wp, x, spec, tc.c0, tc.oh, tc.ow, Epilogue{}, 0) },
		} {
			t.Run(tc.name+"/"+fn, func(t *testing.T) {
				defer func() {
					msg := fmt.Sprint(recover())
					for _, part := range append(tc.parts, fn) {
						if !strings.Contains(msg, part) {
							t.Fatalf("refusal %q does not mention %q", msg, part)
						}
					}
				}()
				run()
				t.Fatal("ran")
			})
		}
	}
	ConvPackedInto(New(m, side*side), good, x, spec, 4, side, side, Epilogue{}, 0) // the last group is in range
}

// zeroAllocCases are the convs the zero-alloc gates run. The second is
// the one that stretches the int8 path's pooled quantized copy: a later
// group (c0 > 0), an odd k (the extra zero plane), stride 2 — the strided
// form of the panel gather; the third a 1×1 s2 shortcut, which gathers
// at stride 2 from a view of x.Data. The last two are the n = 9 and
// n = 36 shapes the narrow fp32 tile takes, with its full-depth B panel
// in pooled scratch; a batch of four of them is what the int8 path folds
// into one GEMM, its slivers cut across samples. The ow = 1 pair fills
// the segment array of the widest panel.
func zeroAllocCases() []gatherCase {
	cases := []gatherCase{
		{"3x3", ConvSpec{InC: 16, OutC: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 24, 24},
		{"3x3 s2, last group", ConvSpec{InC: 6, OutC: 32, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1, Groups: 2}, 24, 24},
		{"1x1 s2 view", ConvSpec{InC: 16, OutC: 32, KH: 1, KW: 1, StrideH: 2, StrideW: 2}, 24, 24},
		{"3x3 on 3x3", ConvSpec{InC: 64, OutC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 3, 3},
		{"3x3 on 6x6", ConvSpec{InC: 64, OutC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 6, 6},
	}
	return append(cases, owOneCases(16, 32)...)
}

// checkConvZeroAlloc asserts that the steady-state implicit-im2col paths
// of the selected tier (fp32 and int8, with cached packed weights)
// perform zero heap allocations per call on tc's last group — the
// contract the plan executor's zero-alloc frame loop builds on: the fp32
// conv, the int8 conv of one sample, and of a batch of four, unchecked
// and checked. What could leak is what a pack hands the gather kernel
// through a func value: the segment list and the tap table.
func checkConvZeroAlloc(t *testing.T, tc gatherCase) {
	t.Helper()
	spec := tc.spec
	groups := max(spec.Groups, 1)
	icg, ocg := spec.InC/groups, spec.OutC/groups
	g := groups - 1
	r := rng.New(11)
	x := randTensor(r, spec.InC, tc.h, tc.w)
	w := randTensor(r, spec.OutC, icg, spec.KH, spec.KW)
	taps := spec.KH * spec.KW
	k := icg * taps
	oh, ow := spec.OutSize(tc.h, tc.w)
	wp := PackWeights(FromSlice(w.Data[g*ocg*k:(g+1)*ocg*k], ocg, k))
	qw := QuantizePerChannel(w)
	qp := PackWeightsQ(qw.Data[g*ocg*k:(g+1)*ocg*k], ocg, k, taps)
	rowScale := convQScales(qw, 1.0/127, g, ocg)
	ep := Epilogue{Act: EpActSiLU}
	want0 := func(what string, run func()) {
		t.Helper()
		run()
		if a := testing.AllocsPerRun(10, run); a != 0 {
			t.Errorf("%s, %s on %dx%d: %.0f allocs per steady-state call, want 0", tc.name, what, tc.h, tc.w, a)
		}
	}
	xs := []*Tensor{x, x, x, x}
	dsts := []*Tensor{New(ocg, oh*ow), New(ocg, oh*ow), New(ocg, oh*ow), New(ocg, oh*ow)}
	want0("ConvPackedInto", func() { ConvPackedInto(dsts[0], wp, x, spec, g*icg, oh, ow, ep, 0) })
	want0("ConvPackedQBatchInto of one", func() {
		ConvPackedQBatchInto(dsts[:1], qp, xs[:1], spec, g*icg, oh, ow, 127, rowScale, ep, 0, nil)
	})
	for _, bad := range [][]bool{nil, make([]bool, len(xs))} {
		want0(fmt.Sprintf("ConvPackedQBatchInto of four, checked=%v", bad != nil), func() {
			ConvPackedQBatchInto(dsts, qp, xs, spec, g*icg, oh, ow, 127, rowScale, ep, 0, bad)
		})
	}
}

// TestPackedConvZeroAlloc runs the gate on the selected tier
// (TestTierZeroAlloc: on every tier).
func TestPackedConvZeroAlloc(t *testing.T) {
	for _, tc := range zeroAllocCases() {
		checkConvZeroAlloc(t, tc)
	}
}

// TestPoolAlignment property-tests the 64-byte alignment guarantee of
// both scratch pools: fresh allocations, recycled buffers, and buffers
// re-entering the pool misaligned must all come back out aligned.
func TestPoolAlignment(t *testing.T) {
	aligned := func(p unsafe.Pointer) bool { return uintptr(p)%poolAlign == 0 }
	r := rng.New(31)
	p := NewPool()
	bp := NewBytePool()
	for trial := 0; trial < 300; trial++ {
		n := 1 + int(r.Uint64()%10000)
		f := p.GetRaw(n)
		if !aligned(unsafe.Pointer(unsafe.SliceData(f))) {
			t.Fatalf("GetRaw(%d): misaligned buffer", n)
		}
		tt := p.Get(n)
		if !aligned(unsafe.Pointer(unsafe.SliceData(tt.Data))) {
			t.Fatalf("Get(%d): misaligned tensor backing", n)
		}
		b := bp.Get(n)
		if !aligned(unsafe.Pointer(unsafe.SliceData(b))) {
			t.Fatalf("BytePool.Get(%d): misaligned buffer", n)
		}
		// Poison the pools with deliberately misaligned views; the next
		// Gets must still hand out aligned starts.
		off := 1 + int(r.Uint64()%7)
		if len(f) > off {
			p.PutRaw(f[off:])
		} else {
			p.PutRaw(f)
		}
		p.Put(tt)
		if len(b) > off {
			bp.Put(b[off:])
		} else {
			bp.Put(b)
		}
	}
}

// TestPoolRawConcurrentStress hammers GetRaw/PutRaw (the packed-GEMM
// panel scratch entry points) from many goroutines; under -race this
// validates the locking discipline of the pack scratch pools, and the
// marker check that no buffer is ever shared.
func TestPoolRawConcurrentStress(t *testing.T) {
	p := NewPool()
	bp := NewBytePool()
	const workers = 8
	const rounds = 300
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.New(uint64(w) + 77)
			marker := float32(w + 1)
			bmark := int8(w + 1)
			for i := 0; i < rounds; i++ {
				n := 1 + int(r.Uint64()%4096)
				f := p.GetRaw(n)
				b := bp.Get(n)
				for j := range f {
					f[j] = marker
				}
				for j := range b {
					b[j] = bmark
				}
				for j := range f {
					if f[j] != marker {
						errs <- "float buffer shared between goroutines"
						return
					}
				}
				for j := range b {
					if b[j] != bmark {
						errs <- "byte buffer shared between goroutines"
						return
					}
				}
				p.PutRaw(f)
				bp.Put(b)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func BenchmarkPackedMatMul512(b *testing.B) {
	a := randTensor(rng.New(1), 512, 512)
	c := randTensor(rng.New(2), 512, 512)
	dst := New(512, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matMulPackedInto(dst, a, c, Epilogue{}, 0)
	}
}

// BenchmarkRefMatMul512 is the retained reference kernel at the same
// shape — the denominator of the PR-5 speedup claims in BENCHMARKS.md.
func BenchmarkRefMatMul512(b *testing.B) {
	a := randTensor(rng.New(1), 512, 512)
	c := randTensor(rng.New(2), 512, 512)
	dst := New(512, 512)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matMulRefInto(dst, a, c)
	}
}
