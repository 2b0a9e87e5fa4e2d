package tensor

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"ocularone/internal/rng"
)

// The int8 layout is the tier's (packq.go): int16·int8 pairs on the word
// tiers, int8·offset-byte quads on avx512vnni. These tests hold each
// tier's kernels, zips and slivers to plain Go loops over the layout the
// tier declares (qK, qFlip), so the pair tiers run the same bodies as
// the quad tier.

// rawTileRef is what a tier's kernel must leave in its accumulators for
// 4×k weights a against the k-group-interleaved sliver b: Σ a·operand,
// the operand being the stored byte as the kernel reads it — unsigned on
// the quad tier, signed on the pair tiers — over a plain triple loop.
func rawTileRef(a []int8, k int, b []int8) []int64 {
	kq, nr := qK, qNR
	ref := make([]int64, 4*nr)
	for r := 0; r < 4; r++ {
		for j := 0; j < nr; j++ {
			for kk := 0; kk < k; kk++ {
				stored := b[kk/kq*kq*nr+j*kq+kk%kq]
				operand := int64(stored)
				if kq == 4 {
					operand = int64(uint8(stored))
				}
				ref[r*nr+j] += int64(a[r*k+kk]) * operand
			}
		}
	}
	return ref
}

// TestQuadKernelMatchesReference runs every tier's full tile, and its
// half tile where one is bound, against rawTileRef: depths of every
// residue mod the k-group that take the kernels' unrolled loops through
// whole turns and every tail length, random and extreme bytes in every
// column, and the half tile leaving columns qNR/2… of acc alone. (Live
// column counts are the drivers' business: TestHalfTileQMatchesFullTile.)
func TestQuadKernelMatchesReference(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier string) {
		kq, nr := qK, qNR
		r := rng.New(2000)
		byteOf := func(mode int) int8 {
			switch mode {
			case 1:
				return -128
			case 2:
				return 127
			case 3:
				return []int8{-128, 127}[r.Uint64()%2]
			}
			return int8(r.Uint64())
		}
		for _, k := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 15, 16, 17, 18, 19, 27, 28, 29, 30, 31, 32, 33, 147, 576} {
			for mode := 0; mode < 4; mode++ {
				a := make([]int8, 4*k)
				for i := range a {
					a[i] = byteOf(mode)
				}
				wp := PackWeightsQ(a, 4, k, 1)
				// The k tail of the sliver holds what a pack source leaves
				// there; the panel's zeros must silence it whatever it is.
				b := make([]int8, wp.kg*kq*nr)
				for i := range b {
					b[i] = byteOf((mode + 1) % 4)
				}
				acc := make([]int32, 4*nr)
				kernQ(&acc[0], wp.panel(0), &b[0], wp.kg)
				ref := rawTileRef(a, k, b)
				for i, v := range acc {
					if int64(v) != ref[i] {
						t.Fatalf("k=%d mode %d: full tile acc[%d] = %d, reference %d", k, mode, i, v, ref[i])
					}
				}
				if kernHalfQ == nil {
					continue
				}
				const sentinel = 0x5a5a5a5a
				for i := range acc {
					acc[i] = sentinel
				}
				kernHalfQ(&acc[0], wp.panel(0), &b[0], wp.kg)
				for i, v := range acc {
					want := int64(sentinel)
					if i%nr < nr/2 {
						want = ref[i]
					}
					if int64(v) != want {
						t.Fatalf("k=%d mode %d: half tile acc[%d] = %d, want %d", k, mode, i, v, want)
					}
				}
			}
		}
	})
}

// TestInt8AccumulatorBound pins the depth to which each tier's int32
// accumulators are exact: saturated operands of both signs at the
// deepest Table-2 conv (k = 4608) and at the tier's bound itself, through
// the tier's kernel, compensated, against an int64 sum; one step past
// the bound the pack refuses, naming it, and MatMulInt8Into takes the
// reference route instead.
func TestInt8AccumulatorBound(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier string) {
		kq, nr := qK, qNR
		bound := maxDepthQ(kq)
		for _, k := range []int{4608, bound} {
			for _, wv := range []int8{127, -127, -128} {
				for _, xv := range []int8{127, -128} {
					a := make([]int8, 4*k)
					for i := range a {
						a[i] = wv
					}
					wp := PackWeightsQ(a, 4, k, 1)
					b := make([]int8, wp.kg*kq*nr)
					fillBytes(b, xv^qFlip(kq))
					acc := make([]int32, 4*nr)
					kernQ(&acc[0], wp.panel(0), &b[0], wp.kg)
					// The sliver's k tail holds xv too, against zero weights.
					want := int64(k) * int64(wv) * int64(xv)
					for i, v := range acc {
						if got := int64(v - wp.comp[i/nr]); got != want {
							t.Fatalf("k=%d w=%d x=%d: acc[%d] compensates to %d, int64 sum %d", k, wv, xv, i, got, want)
						}
					}
				}
			}
		}
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, fmt.Sprintf("k=%d", bound)) {
					t.Fatalf("PackWeightsQ at k=%d: %q does not name the bound %d", bound+1, msg, bound)
				}
			}()
			PackWeightsQ(make([]int8, 4*(bound+1)), 4, bound+1, 1)
		}()
		// Past the bound the matrix entry point must not pack: a shape
		// that otherwise would takes the reference loop and still answers.
		const m, n = 4, 128
		k := bound + 1
		qa := QFromSlice(make([]int8, m*k), []float32{1}, m, k)
		qb := QFromSlice(make([]int8, k*n), []float32{1}, k, n)
		for i := range qa.Data {
			qa.Data[i] = int8(i%3 - 1)
		}
		for i := range qb.Data {
			qb.Data[i] = int8(i%5 - 2)
		}
		rowScale := []float32{1, 1, 1, 1}
		got, want := New(m, n), New(m, n)
		MatMulInt8Into(got, qa, qb, rowScale)
		matMulInt8RefInto(want, qa, qb, rowScale, Epilogue{}, 0)
		if !slices.Equal(got.Data, want.Data) {
			t.Fatalf("MatMulInt8Into at k=%d differs from the reference route", k)
		}
	})
}

// TestInterleaveQuads checks the four-row zip on 0 to 70 columns from
// every source and destination alignment, and that it writes nothing
// past dst[4n).
func TestInterleaveQuads(t *testing.T) {
	r := rng.New(2100)
	src := make([]int8, 4*(70+8))
	for i := range src {
		src[i] = int8(r.Uint64())
	}
	for n := 0; n <= 70; n++ {
		for off := 0; off < 8; off++ {
			rows := [4][]int8{}
			for s := range rows {
				rows[s] = src[s*78+(off+s)%8:][:n+1]
			}
			dst := make([]int8, 4*n+16+8)
			for i := range dst {
				dst[i] = 0x55
			}
			d := dst[off:]
			interleaveQuads(&d[0], &rows[0][0], &rows[1][0], &rows[2][0], &rows[3][0], n)
			for i := range d {
				want := int8(0x55)
				if i < 4*n {
					want = rows[i%4][i/4]
				}
				if d[i] != want {
					t.Fatalf("n=%d offset %d: dst[%d] = %d, want %d", n, off, i, d[i], want)
				}
			}
		}
	}
}

// sliverRowQ maps step d of the packed depth of a conv of icg channels
// and taps taps (depthQ's order, k-group kq) back to the Im2ColQInto row
// it holds, c·taps+t, or −1 on a pad channel.
func sliverRowQ(d, icg, taps, kq int) int {
	grp, s := d/kq, d%kq
	c := grp/taps*kq + s
	if c >= icg {
		return -1
	}
	return c*taps + grp%taps
}

// TestConvSliverMatchesIm2ColQ holds the int8 conv sliver of a batch —
// as the folded driver packs it, slivers straddling up to three samples
// and more — to the reference lowering: stored byte (kk, jj, s) is the
// Im2ColQInto row (c, ky, kx), c = cg·qK+s and kk = (cg, ky, kx), of the
// sample that owns the column, XORed with the tier's qFlip (plus 128 on
// the quad tier), and the pad channels and dead columns hold a zero
// stored the same way. Stride 1 and 2, dilation, padding wider than the
// kernel, icg of every residue mod 4.
func TestConvSliverMatchesIm2ColQ(t *testing.T) {
	cases := []gatherCase{
		{"3x3 same on 3x3", ConvSpec{InC: 5, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}, 3, 3},
		{"3x3 stride 2 odd icg", ConvSpec{InC: 3, OutC: 4, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, 6, 5},
		{"1x1 on 1x3", ConvSpec{InC: 7, OutC: 4, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, 1, 3},
		{"dilation 2", ConvSpec{InC: 3, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2, DilationH: 2, DilationW: 2}, 5, 4},
		{"pad wider than the kernel", ConvSpec{InC: 1, OutC: 4, KH: 2, KW: 2, StrideH: 2, StrideW: 2, PadH: 3, PadW: 3}, 3, 2},
		{"2x3 kernel, 6 columns a sample", ConvSpec{InC: 2, OutC: 4, KH: 2, KW: 3, StrideH: 1, StrideW: 1, PadW: 1}, 3, 3},
		{"whole groups, stride 2", ConvSpec{InC: 8, OutC: 4, KH: 3, KW: 3, StrideH: 2, StrideW: 2, PadH: 1, PadW: 1}, 7, 7},
		{"plane past one staged chunk", ConvSpec{InC: 6, OutC: 4, KH: 1, KW: 1, StrideH: 1, StrideW: 1}, 40, 30},
	}
	const nb, inv = 5, 100
	forEachTier(t, func(t *testing.T, tier string) {
		kq, nr, flip := qK, qNR, qFlip(qK)
		for ci, tc := range cases {
			spec := tc.spec
			oh, ow := spec.OutSize(tc.h, tc.w)
			taps := spec.KH * spec.KW
			k, n := spec.InC*taps, oh*ow
			r := rng.New(uint64(2200 + ci))
			xs := make([]*Tensor, nb)
			cols := make([][]int8, nb)
			for s := range xs {
				xs[s] = randTensor(r, spec.InC, tc.h, tc.w)
				cols[s] = make([]int8, k*n)
				Im2ColQInto(xs[s], cols[s], inv, spec, 0, spec.InC, oh, ow, 0, n)
			}
			src := newQConvB(xs, inv, spec, 0, k, oh, ow)
			kg := (spec.InC + kq - 1) / kq * taps
			if src.kg != kg {
				t.Fatalf("%s: the source packs %d k-groups, want %d", tc.name, src.kg, kg)
			}
			buf := make([]int8, kg*kq*nr)
			for j0 := 0; j0 < nb*n; j0 += nr {
				jw := min(nr, nb*n-j0)
				for i := range buf {
					buf[i] = 7
				}
				src.pack(buf, j0, jw)
				for d := 0; d < kg*kq; d++ {
					row := sliverRowQ(d, spec.InC, taps, kq)
					for jj := 0; jj < nr; jj++ {
						want := flip
						if row >= 0 && jj < jw {
							want ^= cols[(j0+jj)/n][row*n+(j0+jj)%n]
						}
						if got := buf[d/kq*kq*nr+jj*kq+d%kq]; got != want {
							t.Fatalf("%s: sliver at column %d: depth %d (im2col row %d) col %d = %d, want %d", tc.name, j0, d, row, jj, got, want)
						}
					}
				}
			}
			src.release()
		}
	})
}

// TestConvWeightOrder holds the packed weights to the source they were
// read from through depthQ: for every channel count that leaves 0 to 3
// pad channels in a group and 1, 9 and 49 taps, every stored value — all
// rows of every panel, all of the padded depth — is the source weight at
// its (c, t) or zero, comp and csum agree with plain loops over the
// source, and the per-call pack (packScratchQ) stores the same panels.
func TestConvWeightOrder(t *testing.T) {
	forEachTier(t, func(t *testing.T, tier string) {
		kq := qK
		r := rng.New(2400)
		for _, icg := range []int{1, 3, 4, 7, 16} {
			for _, taps := range []int{1, 9, 49} {
				const m = 6 // a whole panel and a ragged one
				k := icg * taps
				a := make([]int8, m*k)
				for i := range a {
					a[i] = int8(r.Uint64())
				}
				a[0], a[len(a)-1] = -128, 127
				wp := PackWeightsQ(a, m, k, taps)
				sp := packScratchQ(a, m, k, taps)
				kg := (icg + kq - 1) / kq * taps
				if wp.kg != kg || wp.K() != k || wp.M() != m || wp.icg != icg || wp.taps != taps {
					t.Fatalf("icg %d taps %d: packed as m %d k %d icg %d taps %d kg %d, want kg %d", icg, taps, wp.M(), wp.K(), wp.icg, wp.taps, wp.kg, kg)
				}
				stored := func(p *PackedQ, row, d int) int {
					if kq == 4 {
						return int(p.quads[row/4*kg*16+d/4*16+row%4*4+d%4])
					}
					return int(p.pairs[row/4*kg*8+d/2*8+row%4*2+d%2])
				}
				seen := make([]bool, k)
				for d := 0; d < kg*kq; d++ {
					src := sliverRowQ(d, icg, taps, kq)
					if src >= 0 {
						if c, tap := src/taps, src%taps; depthQ(c, tap, taps, kq) != d || seen[src] {
							t.Fatalf("icg %d taps %d: depth %d decodes to weight (%d, %d), which depthQ puts at %d", icg, taps, d, c, tap, depthQ(c, tap, taps, kq))
						}
						seen[src] = true
					}
					var sum int64
					for row := 0; row < (m+3)/4*4; row++ {
						want := 0
						if row < m && src >= 0 {
							want = int(a[row*k+src])
						}
						sum += int64(want)
						if got, again := stored(wp, row, d), stored(&sp, row, d); got != want || again != want {
							t.Fatalf("icg %d taps %d: row %d depth %d (source column %d) holds %d, per-call pack %d, want %d", icg, taps, row, d, src, got, again, want)
						}
					}
					if wp.csum[d] != sum {
						t.Fatalf("icg %d taps %d: csum[%d] = %d, column sum %d", icg, taps, d, wp.csum[d], sum)
					}
				}
				if slices.Contains(seen, false) {
					t.Fatalf("icg %d taps %d: source columns missing from the packed depth: %v", icg, taps, seen)
				}
				for row := 0; row < m; row++ {
					var want int32
					if kq == 4 {
						for _, v := range a[row*k : (row+1)*k] {
							want += 128 * int32(v)
						}
					}
					if wp.comp[row] != want || sp.comp[row] != want {
						t.Fatalf("icg %d taps %d: comp[%d] = %d, per-call pack %d, want %d", icg, taps, row, wp.comp[row], sp.comp[row], want)
					}
				}
				sp.release()
			}
		}
	})
}

// flipWeightBit flips one bit of the packed weight of row row at step kk
// of the packed depth in place, whichever form p stores it in.
func flipWeightBit(p *PackedQ, row, kk int, bit uint) {
	if p.kq == 4 {
		p.quads[row/4*p.kg*16+kk/4*16+row%4*4+kk%4] ^= 1 << bit
		return
	}
	p.pairs[row/4*p.kg*8+kk/2*8+row%4*2+kk%2] ^= 1 << bit
}

// TestABFTPackedLayoutFaults injects, on every tier and on both int8
// routes (folded batch and sample by sample), the faults the checksum
// must see now that the stored operands carry an offset and a
// compensation: (a) a bit in a comp entry, (b) a bit in a packed weight,
// (c) a bit in a packed activation byte after its checksum share was
// folded, (d) a bit in a raw accumulator. Each must be flagged on
// exactly the samples whose output it changed, and re-executing those
// through Im2ColQInto + the reference GEMM must restore the clean batch.
func TestABFTPackedLayoutFaults(t *testing.T) {
	defer func() { ABFTFaultQ, abftFaultB = nil, nil }()
	spec := ConvSpec{InC: 7, OutC: 10, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	const m, k, nb = 10, 7 * 9, 4
	forEachTier(t, func(t *testing.T, tier string) {
		for _, side := range []int{3, 9} { // folded; per sample
			n := side * side
			b := newFoldBatches(rng.New(uint64(16000+side)), spec, side, side, nb)[0]
			// The full epilogue (per-channel affine, SiLU) runs in the fused
			// call the check shares. SiLU, not ReLU: a fault that leaves an
			// output negative either way would be flagged and not show.
			want, _ := b.batch(b.ep, nil)
			// The sliver that holds the victim's middle column, in the order
			// the route's hooks meet slivers (folded: the batch's; sample by
			// sample: each sample's own, one sample after the other), and the
			// column inside it.
			const victim = 2
			nSliv := (n + qNR - 1) / qNR
			sliverNo, colIn := victim*nSliv+n/2/qNR, n/2%qNR
			if foldsBatchQ(nb, n) {
				sliverNo, colIn = (victim*n+n/2)/qNR, (victim*n+n/2)%qNR
			}
			faults := []struct {
				name        string
				arm, disarm func()
			}{
				{"comp entry",
					func() { b.qp.comp[m-1] ^= 1 << 9 },
					func() { b.qp.comp[m-1] ^= 1 << 9 }},
				{"packed weight", // the last channel's: a pad channel's meets only zeros
					func() { flipWeightBit(b.qp, 5, depthQ(6, 7, 9, qK), 3) },
					func() { flipWeightBit(b.qp, 5, depthQ(6, 7, 9, qK), 3) }},
				{"activation byte after the fold",
					func() {
						seen := 0
						abftFaultB = func(bbuf []int8, j0 int) {
							if seen == sliverNo {
								kk := depthQ(3, 4, 9, qK)
								bbuf[kk/qK*qK*qNR+colIn*qK+kk%qK] ^= 1 << 6
							}
							seen++
						}
					},
					func() { abftFaultB = nil }},
				{"raw accumulator",
					func() {
						seen := 0
						ABFTFaultQ = func(acc []int32, i0, j0 int) {
							if i0 != 4 { // the second A panel meets every sliver once
								return
							}
							if seen == sliverNo {
								acc[qNR+colIn] ^= 1 << 20
							}
							seen++
						}
					},
					func() { ABFTFaultQ = nil }},
			}
			for _, f := range faults {
				what := fmt.Sprintf("%s, %dx%d planes", f.name, side, side)
				bad := make([]bool, nb)
				f.arm()
				got, ok := b.batch(b.ep, bad)
				f.disarm()
				if ok || !slices.Contains(bad, true) {
					t.Fatalf("%s: not detected (ok=%v bad=%v)", what, ok, bad)
				}
				for s := range bad {
					if changed := !slices.Equal(got[s].Data, want[s].Data); bad[s] != changed {
						t.Fatalf("%s: sample %d flagged=%v, output changed=%v", what, s, bad[s], changed)
					}
					if !bad[s] {
						continue
					}
					colsQ := QFromSlice(make([]int8, k*n), nil, k, n)
					Im2ColQInto(b.xs[s], colsQ.Data, foldInv, spec, 0, spec.InC, side, side, 0, n)
					MatMulInt8RefEpilogueInto(got[s], b.qg, colsQ, b.rowScale, b.ep, b.chanOff)
				}
				wantSameOutputs(t, what+" recovered", got, want)
				// Disarmed, the same operands run clean again.
				if _, ok := b.batch(b.ep, bad); !ok {
					t.Fatalf("%s: still flagged after the fault was taken back: %v", what, bad)
				}
			}
		}
	})
}

// TestPackedQLayoutFollowsTier pins the tier-switch contract of int8
// weights: a PackedQ runs on the tiers that share the k-group it was
// packed for, is refused — by a panic that names both groups and the
// tier — on the others, and repacking under the new tier gives the same
// results bit for bit.
func TestPackedQLayoutFollowsTier(t *testing.T) {
	orig := KernelTier()
	defer func() {
		if err := SetKernelTier(orig); err != nil {
			panic(err)
		}
	}()
	spec := ConvSpec{InC: 6, OutC: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	const side, nb = 6, 3
	groupOf := map[string]int{}
	results := map[string][]*Tensor{}
	packed := map[string]*foldBatch{}
	for _, tier := range KernelTiers() {
		if err := SetKernelTier(tier); err != nil {
			t.Fatal(err)
		}
		groupOf[tier] = qK
		b := newFoldBatches(rng.New(17000), spec, side, side, nb)[0]
		packed[tier] = &b
		results[tier], _ = b.batch(b.ep, nil)
	}
	for _, from := range KernelTiers() {
		for _, to := range KernelTiers() {
			if err := SetKernelTier(to); err != nil {
				t.Fatal(err)
			}
			if groupOf[from] == groupOf[to] {
				got, _ := packed[from].batch(packed[from].ep, nil)
				wantSameOutputs(t, fmt.Sprintf("packed under %s, run under %s", from, to), got, results[orig])
				continue
			}
			func() {
				defer func() {
					msg := fmt.Sprint(recover())
					for _, part := range []string{"PackedQ", fmt.Sprintf("k-group %d", groupOf[from]), to, fmt.Sprintf("k-group %d", groupOf[to]), "repack"} {
						if !strings.Contains(msg, part) {
							t.Fatalf("packed under %s, run under %s: refusal %q does not mention %q", from, to, msg, part)
						}
					}
				}()
				packed[from].batch(packed[from].ep, nil)
				t.Fatalf("packed under %s (k-group %d) ran under %s (k-group %d)", from, groupOf[from], to, groupOf[to])
			}()
		}
	}
	for tier, got := range results {
		wantSameOutputs(t, "repacked under "+tier, got, results[orig])
	}
}

// TestPackedQLayoutFollowsTaps pins the other half of the layout
// contract: the packed depth order is the conv's, so weights packed for
// one tap count are refused — by a panic that names both counts — by a
// source that unrolls another, on both conv routes and by the matrix
// driver.
func TestPackedQLayoutFollowsTaps(t *testing.T) {
	spec := ConvSpec{InC: 4, OutC: 4, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	refused := func(what string, packed, run int, fn func()) {
		t.Helper()
		defer func() {
			msg := fmt.Sprint(recover())
			for _, part := range []string{"PackedQ", fmt.Sprintf("%d taps", packed), fmt.Sprintf("unrolls %d taps", run)} {
				if !strings.Contains(msg, part) {
					t.Fatalf("%s: refusal %q does not mention %q", what, msg, part)
				}
			}
		}()
		fn()
		t.Fatalf("%s: weights packed for %d taps ran against %d", what, packed, run)
	}
	forEachTier(t, func(t *testing.T, tier string) {
		const k, side = 4 * 9, 6
		r := rng.New(2500)
		flat := PackWeightsQ(make([]int8, 4*k), 4, k, 1)
		conv := PackWeightsQ(make([]int8, 4*k), 4, k, 9)
		rowScale := []float32{1, 1, 1, 1}
		for _, nb := range []int{1, 3} { // per sample; folded
			xs, dsts := make([]*Tensor, nb), make([]*Tensor, nb)
			for s := range xs {
				xs[s], dsts[s] = randTensor(r, 4, side, side), New(4, side*side)
			}
			refused(fmt.Sprintf("3x3 conv, batch %d", nb), 1, 9, func() {
				ConvPackedQBatchInto(dsts, flat, xs, spec, 0, side, side, 1, rowScale, Epilogue{}, 0, nil)
			})
		}
		refused("matrix", 9, 1, func() {
			gemmStripesQ(make([]float32, 4*8), 8, conv, qMatrixB{b: make([]int8, k*8), k: k, n: 8}, rowScale, Epilogue{}, 0, false)
		})
	})
}

// BenchmarkInt8Kernels times each tier's bare int8 tile — kernel only,
// panels and slivers packed once outside the loop — over the whole GEMM
// at four Table-2 conv shapes, n rounded up to whole slivers as the
// drivers run them: GOPS (2·m·k·n a GEMM) per tier.
func BenchmarkInt8Kernels(b *testing.B) {
	shapes := []struct{ m, k, n int }{
		{64, 576, 576}, {128, 2304, 144}, {512, 4608, 36}, {64, 147, 2304},
	}
	orig := KernelTier()
	defer func() { _ = SetKernelTier(orig) }()
	for _, tier := range KernelTiers() {
		if err := SetKernelTier(tier); err != nil {
			b.Fatal(err)
		}
		for _, s := range shapes {
			b.Run(fmt.Sprintf("%s/m%d_k%d_n%d", tier, s.m, s.k, s.n), func(b *testing.B) {
				r := rng.New(7)
				a := make([]int8, s.m*s.k)
				for i := range a {
					a[i] = int8(r.Uint64())
				}
				wp := PackWeightsQ(a, s.m, s.k, 1)
				nr := qNR
				nSliv := (s.n + nr - 1) / nr
				sliver := wp.kg * wp.kq * nr
				bbuf := alignedSlice[int8](nSliv * sliver)
				for i := range bbuf {
					bbuf[i] = int8(r.Uint64())
				}
				acc := alignedSlice[int32](4 * nr)
				kern := kernQ
				b.ResetTimer()
				for it := 0; it < b.N; it++ {
					for sl := 0; sl < nSliv; sl++ {
						bp := &bbuf[sl*sliver]
						for i0 := 0; i0 < s.m; i0 += 4 {
							kern(&acc[0], wp.panel(i0), bp, wp.kg)
						}
					}
				}
				ops := 2 * float64(s.m) * float64(s.k) * float64(nSliv*nr)
				b.ReportMetric(ops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GOPS")
				b.ReportMetric(float64(len(wp.quads)+2*len(wp.pairs))/1e6, "weightMB")
			})
		}
	}
}

// M reports the packed row count (unpadded).
func (p *PackedQ) M() int { return p.m }

// K reports the packed depth (unpadded).
func (p *PackedQ) K() int { return p.k }
