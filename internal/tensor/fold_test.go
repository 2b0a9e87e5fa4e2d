package tensor

import (
	"fmt"
	"slices"
	"testing"

	"ocularone/internal/rng"
)

// The folded int8 batch route and the per-sample route are held bit for
// bit to one oracle, Conv2DQ followed by the epilogue's Go form: integer
// accumulation is exact and requantization and epilogue are per element,
// so how the batch's columns were cut into tiles can never show in an
// output.

// foldBatch is one conv group's operands for a batch of nb frames.
type foldBatch struct {
	spec     ConvSpec
	oh, ow   int
	c0       int
	qw       *QTensor // the conv's weights, all groups
	qg       *QTensor // the group's [ocg, k] weights, what qp packs
	qp       *PackedQ
	rowScale []float32
	ep       Epilogue
	chanOff  int
	xs       []*Tensor
}

const foldInv = 100 // |x|·inv reaches 100: most of the int8 range

// newFoldBatches draws weights and nb frames for spec on h×w inputs and
// returns one foldBatch per group, with a full epilogue.
func newFoldBatches(r *rng.RNG, spec ConvSpec, h, w, nb int) []foldBatch {
	groups := max(spec.Groups, 1)
	icg, ocg := spec.InC/groups, spec.OutC/groups
	k := icg * spec.KH * spec.KW
	oh, ow := spec.OutSize(h, w)
	xs := make([]*Tensor, nb)
	for s := range xs {
		xs[s] = randTensor(r, spec.InC, h, w)
	}
	qw := QuantizePerChannel(randTensor(r, spec.OutC, icg, spec.KH, spec.KW))
	ep := testEpilogue(r, spec.OutC)
	bs := make([]foldBatch, groups)
	for g := range bs {
		qg := QFromSlice(qw.Data[g*ocg*k:(g+1)*ocg*k], nil, ocg, k)
		bs[g] = foldBatch{spec: spec, oh: oh, ow: ow, c0: g * icg,
			qw: qw, qg: qg, qp: PackWeightsQ(qg.Data, ocg, k, spec.KH*spec.KW),
			rowScale: convQScales(qw, 1.0/foldInv, g, ocg), ep: ep, chanOff: g * ocg, xs: xs}
	}
	return bs
}

// outputs allocates one [ocg, oh·ow] result per sample, filled with a
// value no conv produces so an element a route skips shows up.
func (b *foldBatch) outputs() []*Tensor {
	dsts := make([]*Tensor, len(b.xs))
	for s := range dsts {
		dsts[s] = New(b.qp.m, b.oh*b.ow)
		for i := range dsts[s].Data {
			dsts[s].Data[i] = 99
		}
	}
	return dsts
}

// perSample is the batch one sample at a time.
func (b *foldBatch) perSample(ep Epilogue) []*Tensor {
	dsts := b.outputs()
	for s, x := range b.xs {
		convPackedQOne(dsts[s], b.qp, x, b.spec, b.c0, b.oh, b.ow, foldInv, b.rowScale, ep, b.chanOff, false)
	}
	return dsts
}

// oracle is each sample's group output as Conv2DQ computes it, finished
// by goEpilogue.
func (b *foldBatch) oracle(ep Epilogue) []*Tensor {
	m, plane := b.qp.m, b.oh*b.ow
	dsts := make([]*Tensor, len(b.xs))
	for s, x := range b.xs {
		full := Conv2DQ(x, b.qw, nil, b.spec, 1.0/foldInv)
		dsts[s] = FromSlice(full.Data[b.chanOff*plane:(b.chanOff+m)*plane], m, plane)
		goEpilogue(ep, dsts[s].Data, 0, m, plane, 0, plane, b.chanOff)
	}
	return dsts
}

// batch runs the batch entry point; bad as ConvPackedQBatchInto's.
func (b *foldBatch) batch(ep Epilogue, bad []bool) ([]*Tensor, bool) {
	dsts := b.outputs()
	ok := ConvPackedQBatchInto(dsts, b.qp, b.xs, b.spec, b.c0, b.oh, b.ow, foldInv, b.rowScale, ep, b.chanOff, bad)
	return dsts, ok
}

func wantSameOutputs(t *testing.T, what string, got, want []*Tensor) {
	t.Helper()
	for s := range want {
		for i, v := range want[s].Data {
			if got[s].Data[i] != v {
				t.Fatalf("%s: sample %d elem %d = %v, want %v", what, s, i, got[s].Data[i], v)
			}
		}
	}
}

// checkFoldedMatchesPerSample runs every group on both routes, the batch
// checked and unchecked, requantization alone and with the per-channel
// affine under each activation, against the oracle.
func checkFoldedMatchesPerSample(t *testing.T, spec ConvSpec, h, w, nb int, seed uint64) {
	t.Helper()
	for g, b := range newFoldBatches(rng.New(seed), spec, h, w, nb) {
		eps := []Epilogue{{}}
		for _, act := range []EpAct{EpActReLU, EpActSiLU, EpActSigmoid} {
			ep := b.ep
			ep.Act = act
			eps = append(eps, ep)
		}
		for _, ep := range eps {
			what := fmt.Sprintf("%+v on %dx%d, batch %d, group %d, epilogue=%v act %d", spec, h, w, nb, g, ep.hasWork(), ep.Act)
			want := b.oracle(ep)
			for _, bad := range [][]bool{nil, make([]bool, nb)} {
				got, ok := b.batch(ep, bad)
				if !ok {
					t.Fatalf("%s: clean checked batch flagged: %v", what, bad)
				}
				wantSameOutputs(t, fmt.Sprintf("%s, batch, checked=%v", what, bad != nil), got, want)
			}
			wantSameOutputs(t, what+", per sample", b.perSample(ep), want)
		}
	}
}

// foldCases are convs whose planes hold 1 to 36 pixels, none of them
// square bar the two the networks run: the batch's columns then meet the
// sliver boundaries mid-row and mid-sample at every tier's width, and
// the last sliver is ragged. Rows not a multiple of 4 leave a ragged A
// panel too.
func foldCases() []gatherCase {
	return []gatherCase{
		{"3x3 on 3x3", ConvSpec{InC: 8, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 3, 3},
		{"3x3 on 6x6", ConvSpec{InC: 8, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 6, 6},
		{"3x3 on 5x7, 6 rows", ConvSpec{InC: 4, OutC: 6, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 5, 7},
		{"1x1 on 1x1", ConvSpec{InC: 16, OutC: 8, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, 1, 1},
		{"1x1 on 4x9", ConvSpec{InC: 16, OutC: 8, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, 4, 9},
		{"stride 2 on 9x5", ConvSpec{InC: 6, OutC: 8, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, 9, 5},
		// Twelve columns a sample in rows of six: a 32-column sliver holds
		// two samples and two rows of a third — the one pack call that mixes
		// sample bases with the strided gather, vector turn and tail.
		{"stride 2 on 3x12, three samples a sliver", ConvSpec{InC: 8, OutC: 8, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, 3, 12},
		{"stride 2x1 on 5x11", ConvSpec{InC: 6, OutC: 8, KH: 3, KW: 3, StrideH: 2, StrideW: 1, PadH: 1, PadW: 1}, 5, 11},
		{"dilation 2 on 4x7", ConvSpec{InC: 4, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2, DilationH: 2, DilationW: 2}, 4, 7},
		{"groups 3, odd k, on 2x13", ConvSpec{InC: 9, OutC: 12, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, Groups: 3}, 2, 13},
		{"5x5 odd k on 1x17", ConvSpec{InC: 3, OutC: 8, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2}, 1, 17},
		// One pixel past the bound: the batch runs sample by sample.
		{"3x3 on 1x37", ConvSpec{InC: 4, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 1, 37},
	}
}

// TestFoldedConvQMatchesPerSample: batches of 1 to 8 frames (so a sliver
// straddles up to four samples and more) over foldCases, on every tier.
func TestFoldedConvQMatchesPerSample(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier string) {
		for ci, tc := range foldCases() {
			t.Run(tc.name, func(t *testing.T) {
				for nb := 1; nb <= 8; nb++ {
					checkFoldedMatchesPerSample(t, tc.spec, tc.h, tc.w, nb, uint64(1500+8*ci+nb))
				}
			})
		}
	})
}

// FuzzFoldedConvQMatchesPerSample draws the geometry and the batch as
// FuzzConvPanelGather draws its geometry; planes stay small so most
// inputs fold.
func FuzzFoldedConvQMatchesPerSample(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(3), uint8(0), uint8(0), uint8(0), uint8(0), uint8(1), uint8(1), uint8(0), uint8(3), uint8(3), uint8(2), uint8(2), uint8(3))
	f.Add(uint64(2), uint8(1), uint8(1), uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(1), uint8(1), uint8(1), uint8(9), uint8(7), uint8(7))
	f.Add(uint64(3), uint8(3), uint8(2), uint8(0), uint8(1), uint8(1), uint8(1), uint8(2), uint8(3), uint8(2), uint8(2), uint8(0), uint8(5), uint8(11), uint8(4))
	f.Add(uint64(4), uint8(5), uint8(1), uint8(1), uint8(0), uint8(1), uint8(0), uint8(3), uint8(0), uint8(0), uint8(0), uint8(2), uint8(12), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, kh, kw, sh, sw, dh, dw, ph, pw, groups, icg, ocg, h, w, nb uint8) {
		g := 1 + int(groups%3)
		spec := ConvSpec{
			InC: g * (1 + int(icg%4)), OutC: g * (1 + int(ocg%9)), Groups: g,
			KH: 1 + int(kh%5), KW: 1 + int(kw%5),
			StrideH: 1 + int(sh%2), StrideW: 1 + int(sw%2),
			DilationH: 1 + int(dh%2), DilationW: 1 + int(dw%2),
			PadH: int(ph % 4), PadW: int(pw % 4),
		}
		hh, ww := 1+int(h%13), 1+int(w%13)
		if oh, ow := spec.OutSize(hh, ww); oh <= 0 || ow <= 0 {
			t.Skip()
		}
		forEachTier(t, func(t *testing.T, tier string) {
			checkFoldedMatchesPerSample(t, spec, hh, ww, 1+int(nb%8), seed)
		})
	})
}

// TestHalfTileQMatchesFullTile pins the half-width int8 tile (a ragged
// sliver with at most qNR/2 live columns, on the tiers that bind one) to
// the full tile bit for bit: the same GEMM with the half kernel unbound
// is the oracle. Depths cover both turns of the kernel's two-k-quad loop
// and its odd tail, at every residue of k mod 4; rows and columns are
// ragged.
func TestHalfTileQMatchesFullTile(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier string) {
		if kernHalfQ == nil {
			t.Skip("tier binds no half-width int8 tile")
		}
		r := rng.New(1800)
		for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 9, 13, 16, 17, 72, 75, 146} {
			for _, m := range []int{4, 6, 16} {
				for _, n := range []int{1, qNR / 2, qNR/2 + 1, qNR + 1, qNR + qNR/2} {
					a := QuantizePerChannel(randTensor(r, m, k))
					b := QuantizeSymmetric(randTensor(r, k, n))
					rowScale := make([]float32, m)
					for i := range rowScale {
						rowScale[i] = a.ScaleFor(i) * b.Scales[0]
					}
					wp := PackWeightsQ(a.Data, m, k, 1)
					run := func() []float32 {
						dst := make([]float32, m*n)
						if !gemmStripesQ(dst, n, wp, qMatrixB{b: b.Data, k: k, n: n}, rowScale, Epilogue{}, 0, true) {
							t.Fatalf("m=%d k=%d n=%d: clean checked run flagged", m, k, n)
						}
						return dst
					}
					got := run()
					half := kernHalfQ
					kernHalfQ = nil
					want := run()
					kernHalfQ = half
					if !slices.Equal(got, want) {
						t.Fatalf("m=%d k=%d n=%d: half tile differs from the full tile", m, k, n)
					}
				}
			}
		}
	})
}
