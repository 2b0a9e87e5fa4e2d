package tensor

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"ocularone/internal/rng"
)

// abftShapes are the adversarial GEMM shapes of the ABFT property
// suite: ragged m/n/k, k straddling the kc block boundary, and wide
// edge stripes.
func abftShapes() [][3]int {
	return [][3]int{
		{4, 256, 128},  // k == kc exactly
		{7, 257, 80},   // k one past the block, ragged m
		{16, 255, 33},  // k one short of the block, ragged n
		{12, 600, 48},  // multiple kc blocks, ragged tail
		{64, 576, 100}, // the YOLO trunk shape
		{129, 31, 257}, // shallow k, everything ragged
		{4, 1000, 128}, // four blocks, minimum m
	}
}

// flipTopAbs flips the given bit of the largest-magnitude element in
// column j of rows [0, m) — a single-bit SDC on the element where
// detection is hardest to confuse with roundoff yet guaranteed above
// the tolerance band for these shapes (sign and exponent bits move the
// column sum by ≥ |v|, orders of magnitude over γ_k·mag).
func flipTopAbs(d []float32, n, m, j int, mask uint32) {
	best, bi := float32(-1), 0
	for i := 0; i < m; i++ {
		v := d[i*n+j]
		if v < 0 {
			v = -v
		}
		if v > best {
			best, bi = v, i
		}
	}
	d[bi*n+j] = math.Float32frombits(math.Float32bits(d[bi*n+j]) ^ mask)
}

// TestABFTDetectsPerturbationF32 injects single-bit perturbations
// (sign flip and exponent flip of the largest column element) into
// every stripe position class at adversarial shapes and asserts the
// fp32 checksum verification always detects them, and that reference
// re-execution recovers the bit-exact clean result.
func TestABFTDetectsPerturbationF32(t *testing.T) {
	defer func() { ABFTFaultF32 = nil }()
	for _, s := range abftShapes() {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := randTensor(rng.New(uint64(7*m+k+n)), m, k)
			b := randTensor(rng.New(uint64(m+3*k+n)), k, n)
			clean := New(m, n)
			matMulPackedInto(clean, a, b, Epilogue{}, 0)
			// The narrow route verifies its whole (≤ narrowMaxN-column) result
			// as one stripe.
			nSliv := (n + gemmNR - 1) / gemmNR
			if useNarrowF32(m, n) {
				nSliv = 1
			}
			for _, mask := range []uint32{1 << 31, 1 << 23} { // sign, exponent LSB
				for _, sliv := range []int{0, nSliv / 2, nSliv - 1} {
					target := sliv * gemmNR
					hit := false
					ABFTFaultF32 = func(d []float32, dn, j0, jw int) {
						if j0 != target || hit {
							return
						}
						flipTopAbs(d, dn, m, j0+jw-1, mask)
						hit = true
					}
					got := New(m, n)
					if gemmCheckF32(got, a, b, Epilogue{}) {
						t.Fatalf("mask %#x stripe %d: corruption not detected", mask, sliv)
					}
					if !hit {
						t.Fatalf("mask %#x stripe %d: fault hook never fired", mask, sliv)
					}
					ABFTFaultF32 = nil
					// On-detect recovery: the reference kernel reproduces the
					// clean packed result bit for bit on non-FMA tiers, and
					// within the drift bound on FMA tiers.
					MatMulRefEpilogueInto(got, a, b, Epilogue{}, 0)
					cmpTol(t, "recovery vs clean", got.Data, clean.Data, gemmTolerances(a, b))
				}
			}
		})
	}
}

// TestABFTDetectsPerturbationQ injects single-bit flips at every bit
// position of an int32 accumulator and asserts the exact int8
// verification detects all of them — integer checksums have no
// tolerance band, so even bit 0 is caught.
func TestABFTDetectsPerturbationQ(t *testing.T) {
	defer func() { ABFTFaultQ = nil }()
	for _, s := range [][3]int{{4, 256, 128}, {12, 577, 48}, {64, 576, 100}, {5, 999, 120}} {
		m, k, n := s[0], s[1], s[2]
		t.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(t *testing.T) {
			a := QuantizePerChannel(randTensor(rng.New(uint64(m+k)), m, k))
			b := QuantizeSymmetric(randTensor(rng.New(uint64(n+k)), k, n))
			rowScale := make([]float32, m)
			for i := range rowScale {
				rowScale[i] = a.ScaleFor(i) * b.Scales[0]
			}
			for bit := 0; bit < 32; bit++ {
				hit := false
				ABFTFaultQ = func(acc []int32, i0, j0 int) {
					if hit || i0 != 0 || j0 != 0 {
						return
					}
					acc[bit%len(acc)] ^= 1 << bit
					hit = true
				}
				got := New(m, n)
				if gemmCheckQ(got, a, b, rowScale, Epilogue{}) {
					t.Fatalf("bit %d: accumulator corruption not detected", bit)
				}
				if !hit {
					t.Fatalf("bit %d: fault hook never fired", bit)
				}
			}
			ABFTFaultQ = nil
		})
	}
}

// TestABFTConvDetectsPerturbation runs the checked implicit-im2col
// convolutions (fp32 and int8) across the adversarial conv specs —
// 1×1, strided, dilated, grouped, kc-spanning k — with an injected
// perturbation, asserting detection on every spec, and pins the clean
// checked paths bit-identical to the unchecked kernels.
func TestABFTConvDetectsPerturbation(t *testing.T) {
	defer func() { ABFTFaultF32, ABFTFaultQ = nil, nil }()
	for ci, tc := range convParityCases() {
		t.Run(tc.name, func(t *testing.T) {
			r := rng.New(uint64(300 + ci))
			x := randTensor(r, tc.spec.InC, tc.h, tc.w)
			groups := tc.spec.Groups
			if groups <= 0 {
				groups = 1
			}
			icg, ocg := tc.spec.InC/groups, tc.spec.OutC/groups
			k := icg * tc.spec.KH * tc.spec.KW
			w := randTensor(r, tc.spec.OutC, icg, tc.spec.KH, tc.spec.KW)
			oh, ow := tc.spec.OutSize(tc.h, tc.w)
			plane := oh * ow
			wp := PackWeights(FromSlice(w.Data[:ocg*k], ocg, k))
			clean := New(ocg, plane)
			ConvPackedInto(clean, wp, x, tc.spec, 0, oh, ow, Epilogue{}, 0)

			// Clean checked run: verified true, bit-identical output.
			got := New(ocg, plane)
			if !ConvPackedCheckInto(got, wp, x, tc.spec, 0, oh, ow, Epilogue{}, 0) {
				t.Fatal("clean fp32 conv flagged as corrupt")
			}
			for i := range got.Data {
				if got.Data[i] != clean.Data[i] {
					t.Fatalf("checked conv elem %d: %v != unchecked %v", i, got.Data[i], clean.Data[i])
				}
			}
			// Injected sign flip: always detected.
			hit := false
			ABFTFaultF32 = func(d []float32, dn, j0, jw int) {
				if hit {
					return
				}
				flipTopAbs(d, dn, ocg, j0, 1<<31)
				hit = true
			}
			if ConvPackedCheckInto(got, wp, x, tc.spec, 0, oh, ow, Epilogue{}, 0) {
				t.Fatal("fp32 conv corruption not detected")
			}
			ABFTFaultF32 = nil

			// int8 twin.
			qw := QuantizePerChannel(w)
			const xScale = 1.0 / 127
			qp := PackWeightsQ(qw.Data[:ocg*k], ocg, k, tc.spec.KH*tc.spec.KW)
			rs := convQScales(qw, xScale, 0, ocg)
			cleanQ := New(ocg, plane)
			convPackedQOne(cleanQ, qp, x, tc.spec, 0, oh, ow, 1/xScale, rs, Epilogue{}, 0, false)
			if !convPackedQOne(got, qp, x, tc.spec, 0, oh, ow, 1/xScale, rs, Epilogue{}, 0, true) {
				t.Fatal("clean int8 conv flagged as corrupt")
			}
			for i := range got.Data {
				if got.Data[i] != cleanQ.Data[i] {
					t.Fatalf("checked int8 conv elem %d: %v != unchecked %v", i, got.Data[i], cleanQ.Data[i])
				}
			}
			if ocg >= 4 && plane >= gemmNR { // the hook fires on full kernel tiles only
				hit = false
				ABFTFaultQ = func(acc []int32, i0, j0 int) {
					if hit {
						return
					}
					acc[0] ^= 1 << 13
					hit = true
				}
				detected := !convPackedQOne(got, qp, x, tc.spec, 0, oh, ow, 1/xScale, rs, Epilogue{}, 0, true)
				ABFTFaultQ = nil
				if hit && !detected {
					t.Fatal("int8 conv accumulator corruption not detected")
				}
			}
		})
	}
}

// TestABFTConvGatherRecovery runs the checked convs over the
// geometries that bend the panel gathers (gatherCases, last group so
// c0 > 0) on every tier. The checksum row is folded from the packed
// panel itself, so ABFT alone cannot see a wrong gather: the clean
// checked output is therefore pinned to the materialised im2col +
// reference GEMM, which is also what nn's checkedConvF32/checkedConvQ
// re-execute on a detection — a flipped bit must be flagged and that
// re-execution must reproduce the clean result.
func TestABFTConvGatherRecovery(t *testing.T) {
	defer func() { ABFTFaultF32, ABFTFaultQ = nil, nil }()
	forEachTier(t, func(t *testing.T, tier string) {
		for ci, tc := range gatherCases() {
			spec := tc.spec
			groups := max(spec.Groups, 1)
			icg, ocg := spec.InC/groups, spec.OutC/groups
			k := icg * spec.KH * spec.KW
			oh, ow := spec.OutSize(tc.h, tc.w)
			n := oh * ow
			g := groups - 1
			r := rng.New(uint64(1300 + ci))
			x := randTensor(r, spec.InC, tc.h, tc.w)
			w := randTensor(r, spec.OutC, icg, spec.KH, spec.KW)
			wg := FromSlice(w.Data[g*ocg*k:(g+1)*ocg*k], ocg, k)
			ep := Epilogue{Act: EpActReLU}

			cols := New(k, n)
			Im2ColInto(x, cols, spec, g*icg, icg, oh, ow, 0, n)
			ref := New(ocg, n)
			MatMulRefEpilogueInto(ref, wg, cols, ep, 0)
			tol := gemmTolerances(wg, cols)
			wp := PackWeights(wg)
			got := New(ocg, n)
			if !ConvPackedCheckInto(got, wp, x, spec, g*icg, oh, ow, ep, 0) {
				t.Fatalf("%s: clean fp32 conv flagged", tc.name)
			}
			cmpTol(t, tc.name+" fp32 checked vs materialised", got.Data, ref.Data, tol)
			hit := false
			ABFTFaultF32 = func(d []float32, dn, j0, jw int) {
				// The first column with data: one that reads only padding
				// is all zeros, and a sign flip of zero is no corruption.
				for j := j0; j < j0+jw && !hit; j++ {
					for i := 0; i < ocg && !hit; i++ {
						if d[i*dn+j] != 0 {
							flipTopAbs(d, dn, ocg, j, 1<<31)
							hit = true
						}
					}
				}
			}
			detected := !ConvPackedCheckInto(got, wp, x, spec, g*icg, oh, ow, ep, 0)
			ABFTFaultF32 = nil
			if !hit || !detected {
				t.Fatalf("%s: fp32 sign flip fired=%v detected=%v", tc.name, hit, detected)
			}

			qw := QuantizePerChannel(w)
			const xScale = 1.0 / 100
			qg := QFromSlice(qw.Data[g*ocg*k:(g+1)*ocg*k], nil, ocg, k)
			rs := convQScales(qw, xScale, g, ocg)
			colsQ := QFromSlice(make([]int8, k*n), nil, k, n)
			Im2ColQInto(x, colsQ.Data, 1/xScale, spec, g*icg, icg, oh, ow, 0, n)
			refQ := New(ocg, n)
			MatMulInt8RefEpilogueInto(refQ, qg, colsQ, rs, ep, 0)
			qp := PackWeightsQ(qg.Data, ocg, k, spec.KH*spec.KW)
			if !convPackedQOne(got, qp, x, spec, g*icg, oh, ow, 1/xScale, rs, ep, 0, true) {
				t.Fatalf("%s: clean int8 conv flagged", tc.name)
			}
			if !got.Equal(refQ, 0) {
				t.Fatalf("%s: int8 checked conv differs from the materialised reference", tc.name)
			}
			hit = false
			ABFTFaultQ = func(acc []int32, i0, j0 int) {
				if !hit {
					acc[0] ^= 1
					hit = true
				}
			}
			detected = !convPackedQOne(got, qp, x, spec, g*icg, oh, ow, 1/xScale, rs, ep, 0, true)
			ABFTFaultQ = nil
			if !hit || !detected {
				t.Fatalf("%s: int8 LSB flip fired=%v detected=%v", tc.name, hit, detected)
			}
		}
	})
}

// TestABFTNarrowTileConv is the ABFT battery at the n = 9 and n = 36
// conv shapes, which the FMA tiers run on the narrow 8×12 tile (the
// other tiers run the same cases on their one route): 1000 seeded clean
// runs never flag and equal the unchecked output bit for bit, and a sign
// flip in any sliver is detected and recovered through the materialised
// im2col + reference GEMM.
func TestABFTNarrowTileConv(t *testing.T) {
	defer func() { ABFTFaultF32 = nil }()
	spec := ConvSpec{InC: 32, OutC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	const m, k = 64, 32 * 9
	ep := Epilogue{Act: EpActReLU}
	forEachTier(t, func(t *testing.T, tier string) {
		for trial := 0; trial < 1000; trial++ {
			side := []int{3, 6}[trial%2]
			n := side * side
			r := rng.New(uint64(14000 + trial))
			x := randTensor(r, spec.InC, side, side)
			wg := randTensor(r, m, k)
			wp := PackWeights(wg)
			want := New(m, n)
			ConvPackedInto(want, wp, x, spec, 0, side, side, ep, 0)
			got := New(m, n)
			if !ConvPackedCheckInto(got, wp, x, spec, 0, side, side, ep, 0) {
				t.Fatalf("trial %d (n=%d): clean run flagged as corrupt", trial, n)
			}
			if !got.Equal(want, 0) {
				t.Fatalf("trial %d (n=%d): checked output differs from unchecked", trial, n)
			}
			if trial >= 6 {
				continue
			}
			// One flip per sliver position: first, middle, last column.
			col := []int{0, n / 2, n - 1}[trial/2]
			hit := false
			ABFTFaultF32 = func(d []float32, dn, j0, jw int) {
				if !hit && j0 <= col && col < j0+jw {
					flipTopAbs(d, dn, m, col, 1<<31)
					hit = true
				}
			}
			detected := !ConvPackedCheckInto(got, wp, x, spec, 0, side, side, ep, 0)
			ABFTFaultF32 = nil
			if !hit || !detected {
				t.Fatalf("n=%d column %d: sign flip fired=%v detected=%v", n, col, hit, detected)
			}
			cols := New(k, n)
			Im2ColInto(x, cols, spec, 0, spec.InC, side, side, 0, n)
			MatMulRefEpilogueInto(got, wg, cols, ep, 0)
			cmpTol(t, fmt.Sprintf("n=%d recovery vs clean", n), got.Data, want.Data, gemmTolerances(wg, cols))
		}
	})
}

// TestABFTFoldedConvQ is the ABFT battery of the folded int8 route, on
// every tier: 1000 seeded batches (2 to 5 frames at n = 9 and n = 36)
// never flag and equal the unchecked output bit for bit; a flipped
// accumulator in one sample's column is detected, pinned on that sample
// alone, and re-executing that sample through the materialised im2col +
// reference GEMM — what nn's checkedConvQ does — restores the clean batch.
func TestABFTFoldedConvQ(t *testing.T) {
	defer func() { ABFTFaultQ = nil }()
	spec := ConvSpec{InC: 8, OutC: 16, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	const m, k = 16, 8 * 9
	forEachTier(t, func(t *testing.T, tier string) {
		for trial := 0; trial < 1000; trial++ {
			side, nb := []int{3, 6}[trial%2], 2+trial%4
			n := side * side
			b := newFoldBatches(rng.New(uint64(15000+trial)), spec, side, side, nb)[0]
			want, _ := b.batch(b.ep, nil)
			bad := make([]bool, nb)
			got, ok := b.batch(b.ep, bad)
			if !ok || slices.Contains(bad, true) {
				t.Fatalf("trial %d (n=%d, batch %d): clean run flagged: ok=%v bad=%v", trial, n, nb, ok, bad)
			}
			wantSameOutputs(t, fmt.Sprintf("trial %d checked", trial), got, want)
			if trial >= 8 {
				continue
			}
			// One flip in the victim's first, middle or last column, in the
			// first or the last A panel.
			victim := trial % nb
			col := victim*n + []int{0, n / 2, n - 1}[trial%3]
			row := []int{0, m - 4}[trial/4]
			hit := false
			ABFTFaultQ = func(acc []int32, i0, j0 int) {
				if !hit && i0 == row && j0 <= col && col < j0+qNR {
					acc[col-j0] ^= 1 << (trial + 3)
					hit = true
				}
			}
			got, ok = b.batch(b.ep, bad)
			ABFTFaultQ = nil
			for s := range bad {
				if !hit || ok || bad[s] != (s == victim) {
					t.Fatalf("trial %d (n=%d, batch %d): flip in sample %d column %d: fired=%v ok=%v bad=%v",
						trial, n, nb, victim, col, hit, ok, bad)
				}
			}
			colsQ := QFromSlice(make([]int8, k*n), nil, k, n)
			Im2ColQInto(b.xs[victim], colsQ.Data, foldInv, spec, 0, spec.InC, side, side, 0, n)
			MatMulInt8RefEpilogueInto(got[victim], b.qg, colsQ, b.rowScale, b.ep, 0)
			wantSameOutputs(t, fmt.Sprintf("trial %d recovered", trial), got, want)
		}
	})
}

// TestABFTCleanNoFalsePositive hammers the checked drivers with 1000
// seeded clean trials across fp32 and int8, mixed shapes and
// epilogues: the verification must never flag a clean run — the
// tolerance is the worst-case rounding bound, not a tuned margin.
func TestABFTCleanNoFalsePositive(t *testing.T) {
	shapes := abftShapes()
	ep := Epilogue{Act: EpActSiLU}
	for trial := 0; trial < 1000; trial++ {
		s := shapes[trial%len(shapes)]
		m, k, n := s[0], s[1], s[2]
		r := rng.New(uint64(9000 + trial))
		a := randTensor(r, m, k)
		b := randTensor(r, k, n)
		e := Epilogue{}
		if trial%2 == 1 {
			e = ep
		}
		got := New(m, n)
		if trial%4 == 3 {
			qa := QuantizePerChannel(a)
			qb := QuantizeSymmetric(b)
			rowScale := make([]float32, m)
			for i := range rowScale {
				rowScale[i] = qa.ScaleFor(i) * qb.Scales[0]
			}
			if !gemmCheckQ(got, qa, qb, rowScale, e) {
				t.Fatalf("trial %d (%dx%dx%d int8): clean run flagged as corrupt", trial, m, k, n)
			}
			continue
		}
		if !gemmCheckF32(got, a, b, e) {
			t.Fatalf("trial %d (%dx%dx%d fp32): clean run flagged as corrupt", trial, m, k, n)
		}
	}
}

// TestABFTCheckZeroAlloc pins the steady-state checked conv paths at
// zero heap allocations — ABFT must not cost the plan executor its
// 0 allocs/frame contract.
func TestABFTCheckZeroAlloc(t *testing.T) {
	spec := ConvSpec{InC: 16, OutC: 32, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	r := rng.New(11)
	x := randTensor(r, 16, 24, 24)
	w := randTensor(r, 32, 16, 3, 3)
	k, plane := 16*9, 24*24
	wp := PackWeights(FromSlice(w.Data, 32, k))
	qw := QuantizePerChannel(w)
	qp := PackWeightsQ(qw.Data, 32, k, 9)
	rowScale := make([]float32, 32)
	for i := range rowScale {
		rowScale[i] = qw.ScaleFor(i) * (1.0 / 127)
	}
	dst := New(32, plane)
	dsts, xs, bad := []*Tensor{dst}, []*Tensor{x}, make([]bool, 1)
	ep := Epilogue{Act: EpActSiLU}
	runF := func() {
		if !ConvPackedCheckInto(dst, wp, x, spec, 0, 24, 24, ep, 0) {
			t.Fatal("clean checked conv flagged")
		}
	}
	runQ := func() {
		if !ConvPackedQBatchInto(dsts, qp, xs, spec, 0, 24, 24, 127, rowScale, ep, 0, bad) {
			t.Fatal("clean checked int8 conv flagged")
		}
	}
	runF()
	runQ()
	if a := testing.AllocsPerRun(10, runF); a != 0 {
		t.Errorf("ConvPackedCheckInto: %.0f allocs per steady-state call, want 0", a)
	}
	if a := testing.AllocsPerRun(10, runQ); a != 0 {
		t.Errorf("checked ConvPackedQBatchInto: %.0f allocs per steady-state call, want 0", a)
	}
}

// BenchmarkConvABFT measures the checked implicit-im2col conv against
// the unchecked kernel at the YOLO trunk shape — the ABFT overhead
// number reported in BENCHMARKS.md.
func BenchmarkConvABFT(b *testing.B) {
	spec := ConvSpec{InC: 64, OutC: 64, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1}
	r := rng.New(11)
	x := randTensor(r, 64, 48, 48)
	w := randTensor(r, 64, 64, 3, 3)
	k, plane := 64*9, 48*48
	wp := PackWeights(FromSlice(w.Data, 64, k))
	dst := New(64, plane)
	ep := Epilogue{Act: EpActSiLU}
	b.Run("unchecked", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ConvPackedInto(dst, wp, x, spec, 0, 48, 48, ep, 0)
		}
	})
	b.Run("abft", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ConvPackedCheckInto(dst, wp, x, spec, 0, 48, 48, ep, 0)
		}
	})
}
