package tensor

import "fmt"

// Algorithm-based fault tolerance (ABFT) for the packed GEMM core:
// Huang–Abraham column checksums verified per C stripe.
//
// For C = A×B the left operand carries a checksum row
//
//	csum[kk] = Σ_i A[i,kk]        (float64, exact enough vs fp32 data)
//
// so every output column satisfies Σ_i C[i,j] = Σ_kk csum[kk]·B[kk,j].
// The checked runs (the drivers of pack.go and packq.go given checksums
// — gemmStripesF32, gemmStripesQ, gemmFoldedQ; none has a checked twin)
// accumulate the right-hand side while the B panel is packed (the panel
// is already cache-resident, so the extra multiply-adds per k step cost
// ~1/m of the kernel's work) and compare it with the column sums of the
// finished stripe before the epilogue runs. A silent corruption
// anywhere in the packed panels, the micro-kernel accumulators, or the
// C stripe shifts a column sum away from its prediction and is flagged;
// the caller then re-executes through the retained reference kernel
// (MatMulRefEpilogueInto / MatMulInt8RefEpilogueInto).
//
// fp32 verification is tolerance-banded: the kernel accumulates each
// element as an ascending-k fp32 chain, so the column sum may drift
// from the float64 prediction by up to γ_k·Σ|a||b| (the standard
// summation error bound). The checked driver therefore also carries an
// absolute checksum acsum[kk] = Σ_i |A[i,kk]| to evaluate that bound
// per column exactly; perturbations below the fp32 noise floor are
// mathematically indistinguishable from roundoff and stay undetected
// (the ext-integrity study reports measured coverage per flipped bit
// position). int8 accumulation is exact integer math, so the int8
// check is an equality test and every accumulator corruption is
// detected.
//
// Clean runs can never false-positive: the tolerance is the worst-case
// rounding bound, not an empirical margin. TestABFTCleanNoFalsePositive
// pins this across 1k seeded trials.

// abftEps is the fp32 unit roundoff (2^-24).
const abftEps = 1.0 / (1 << 24)

// abftTol returns the verification tolerance for one output column:
// the worst-case fp32 accumulation error of m length-k dot products
// sharing the absolute-value bound mag = Σ_i Σ_kk |a|·|b|, plus the
// (negligible) float64 checksum error folded into a 1% safety factor.
//
// The bound is derived for the separate multiply-then-add chain (two
// roundings per k step → γ_k with k error terms per product). The FMA
// tiers round once per step, strictly fewer roundings along the same
// ascending-k chain, so every FMA dot product satisfies the same γ_k
// bound — the tolerance holds across tiers and needs no per-tier
// re-derivation, merely losing a little tightness on FMA.
func abftTol(k int, mag float64) float64 {
	ku := float64(k) * abftEps
	return 1.01 * ku / (1 - ku) * mag
}

// Test hooks: when non-nil, the checked runs invoke these after the
// kernel finishes a stripe (fp32: on the raw pre-epilogue C stripe — a
// gemmNR-column sliver, or the whole result of a narrow-tile GEMM;
// int8: on the pre-requant int32 accumulator tile) — the injection
// point of the ABFT property tests and the ext-integrity study. Always
// nil in production.
var (
	ABFTFaultF32 func(dst []float32, n, j0, jw int)
	ABFTFaultQ   func(acc []int32, i0, j0 int)
)

// abftFaultB is the same for a packed int8 B sliver (first column j0),
// invoked after its share of the expected sums was folded and before any
// kernel reads it.
var abftFaultB func(bbuf []int8, j0 int)

// colChecksumsF32 fills csum/acsum (length k) with the plain and
// absolute column sums of row-major a (m×k).
func colChecksumsF32(csum, acsum []float64, a []float32, m, k int) {
	for kk := 0; kk < k; kk++ {
		csum[kk], acsum[kk] = 0, 0
	}
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		for kk, v := range arow {
			f := float64(v)
			csum[kk] += f
			if f < 0 {
				f = -f
			}
			acsum[kk] += f
		}
	}
}

// colChecksumsQ fills csum with the column sums of row-major int8 a
// (m×k, rows of k/taps channels of taps values) in the packed depth
// order of k-group kq: csum[depthQ(c, t)] = Σ_i a[i, c·taps+t], and zero
// on the pad channels out to len(csum) — where the packed B slivers hold
// zero activations. They are sums of the weights themselves, read
// through the same map as newPackedQ reads them.
func colChecksumsQ(csum []int64, a []int8, m, k, taps, kq int) {
	clear(csum)
	icg := k / taps
	for i := 0; i < m; i++ {
		arow := a[i*k : (i+1)*k]
		for c := 0; c < icg; c++ {
			d := depthQ(c, 0, taps, kq)
			for _, v := range arow[c*taps:][:taps] {
				csum[d] += int64(v)
				d += kq
			}
		}
	}
}

// abftFoldPanelF32 adds one packed B panel's share of the expected
// column sums: exp[j] += Σ_kk csum[kk]·B[kk,j] and mag[j] likewise with
// the absolute values, for a panel len(exp) columns wide and len(csum)
// rows deep. The panel is cache-resident when gemmStripesF32 calls
// this right after the pack.
func abftFoldPanelF32(exp, mag, csum, acsum []float64, bbuf []float32) {
	nr := len(exp)
	for kk, cs := range csum {
		as := acsum[kk]
		row := bbuf[kk*nr : kk*nr+nr]
		for j, v := range row {
			b := float64(v)
			exp[j] += cs * b
			if b < 0 {
				b = -b
			}
			mag[j] += as * b
		}
	}
}

// abftVerifyF32 compares the column sums of the finished (pre-epilogue)
// stripe dst[0:m, j0:j0+jw] with their predictions, inside abftTol,
// after giving the fault-injection hook its chance at the stripe.
func abftVerifyF32(dst []float32, m, n, k, j0, jw int, exp, mag []float64) bool {
	if ABFTFaultF32 != nil {
		ABFTFaultF32(dst, n, j0, jw)
	}
	ok := true
	for j := 0; j < jw; j++ {
		var act float64
		for i := 0; i < m; i++ {
			act += float64(dst[i*n+j0+j])
		}
		d := exp[j] - act
		if d < 0 {
			d = -d
		}
		if d > abftTol(k, mag[j]) {
			ok = false
		}
	}
	return ok
}

// abftFoldSliverQ adds one packed int8 sliver's share of the expected
// column sums: exp[j] += Σ_kk csum[kk]·B[kk,j] over the sliver, len(exp)
// columns wide and interleaved in k-groups of kq, with B[kk,j] read back
// out of the stored byte (the XOR with qFlip undoes the quad tier's
// offset). Exact integer sums of the true activations: the prediction
// does not involve PackedQ's panels or comp, so a fault in either shows
// on the actual side alone.
func abftFoldSliverQ(exp, csum []int64, bbuf []int8, kq int) {
	nr, flip := len(exp), qFlip(kq)
	for kk := 0; kk < len(csum); kk += kq {
		cs := csum[kk : kk+kq]
		grp := bbuf[kk*nr : (kk+kq)*nr]
		for j := range exp {
			e := exp[j]
			for s, b := range grp[j*kq : (j+1)*kq] {
				e += cs[s] * int64(b^flip)
			}
			exp[j] = e
		}
	}
}

// ConvPackedCheckInto is ConvPackedInto with ABFT verification; it
// reports whether every output stripe's column checksum matched. The
// result tensor is fully written either way (an undetectable
// sub-roundoff perturbation still yields a usable output); on false
// the caller should re-execute through the reference kernel. Zero heap
// allocations in steady state.
func ConvPackedCheckInto(dst *Tensor, wp *PackedA, x *Tensor, spec ConvSpec, c0, oh, ow int, ep Epilogue, chanOff int) bool {
	return convPackedF32("ConvPackedCheckInto", dst, wp, x, spec, c0, oh, ow, ep, chanOff, true)
}

// scratchQC recycles the folded int8 driver's int64 column sums.
var scratchQC = func() *rawPool[int64] { p := newRawPool[int64](); return &p }()

// scratchI32 recycles the int8 drivers' accumulator tiles, which would
// escape as stack arrays (see gemmStripesQ).
var scratchI32 = func() *rawPool[int32] { p := newRawPool[int32](); return &p }()

// MatMulRefEpilogueInto computes dst = A×B + epilogue strictly through
// the retained reference kernel (the blocked ikj loop), bypassing the
// packed-GEMM routing — the re-execution target of the integrity
// layer's on-detect path. Results are bit-identical to the packed path
// for finite inputs on the non-FMA tiers, and within the abftTol drift
// band of it on the FMA tiers (consumers of a recovery compare with
// the matching regime).
func MatMulRefEpilogueInto(dst, a, b *Tensor, ep Epilogue, chanOff int) {
	m := a.Shape[0]
	n := b.Shape[1]
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulRefEpilogueInto dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	matMulRefInto(dst, a, b)
	ep.apply(dst.Data, 0, m, n, chanOff)
}

// MatMulInt8RefEpilogueInto is the int8 re-execution target: dst =
// (A×B) ⊙ rowScale + epilogue on the reference int8 tiles. Integer
// accumulation is exact and requantization and epilogue replay the
// packed drivers' float32 op sequence, so a clean re-execution
// reproduces the packed result bit for bit.
func MatMulInt8RefEpilogueInto(dst *Tensor, a, b *QTensor, rowScale []float32, ep Epilogue, chanOff int) {
	m := a.Shape[0]
	n := b.Shape[1]
	if dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInt8RefEpilogueInto dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	matMulInt8RefInto(dst, a, b, rowScale, ep, chanOff)
}
