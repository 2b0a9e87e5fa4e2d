package tensor

import (
	"fmt"
	"os"
)

// Runtime CPU dispatch for the packed GEMM micro-kernels.
//
// The packed core (pack.go / packq.go) is driven by a small set of
// geometry parameters — the fp32 register-tile width gemmNR, the k
// block gemmKC, and the int8 tile width qNR — plus the kernel entry
// points (kernF32, kernQ, and the optional kernNarrowF32, kernHalfQ
// and kernRows). A dispatch *tier* binds one consistent assignment of
// them, and the highest tier the CPU supports is selected once at
// package init:
//
//	generic     pure-Go 4×8 fp32 + 4×8 int8 pair tiles (every arch)
//	sse2        SSE2 assembly 4×8 fp32 MULPS/ADDPS + 4×8 PMADDWD int8
//	avx2fma     AVX2/FMA 4×24 fp32 (12 YMM accumulators, fused
//	            multiply-add) + the 8×12 narrow fp32 tile (lanes along
//	            M) + 4×16 VPMADDWD int8 tiles + the AVX2 row kernels
//	            (epilogue, add, pooling max — no FMA; rowops.go)
//	avx512vnni  avx2fma's fp32 kernels + 4×32 int8 tiles accumulated
//	            with AVX-512 VPDPWSSD (VNNI: maddwd and add fused), and
//	            the tile's left half for ragged slivers (kernHalfQ)
//
// Every tier keeps gemmMR = 4, so the packed operand layouts (PackedA
// micro-panels, PackedQ pair-interleaved panels, and both ABFT
// checksum rows) are identical across tiers: weights packed at
// plan-compile time stay valid if the tier is switched afterwards,
// and SetKernelTier never invalidates cached state. The tile that
// varies is the *column* width — wider B slivers per register block —
// which only changes per-call driver loops and scratch sizes.
//
// Parity contract per tier: int8 accumulation is exact integer math
// in every tier, so int8 results are bit-identical to the reference
// tiles everywhere. fp32 results are bit-identical to the scalar
// reference for the non-FMA tiers (generic, sse2: one separate
// multiply and add per k step). The FMA tiers fuse each multiply-add
// into one rounding, so their fp32 results are drift-bounded against
// the reference — within the worst-case ascending-k summation bound
// (abftTol) — rather than bit-equal; KernelTierFMA reports which
// regime is live so parity gates pick the right comparison. That regime
// ends at the GEMM: everything applied to its result — the affine, bias,
// ReLU, SiLU and sigmoid of the epilogue, Add, max pooling — is
// tier-independent by definition. The row kernels (rowops.go) are one
// sequence of separately rounded float32 operations per element, which
// the Go forms and the AVX2 forms both execute, so no activation is
// gated on KernelTierFMA.

// Tier names, ordered lowest to highest.
const (
	TierGeneric    = "generic"
	TierSSE2       = "sse2"
	TierAVX2FMA    = "avx2fma"
	TierAVX512VNNI = "avx512vnni"
)

// kernelTierEnv is the environment override read once at init: set it
// to a tier name to force that tier for the whole process (CI runs
// the parity battery with each tier forced; benchmarks pin a tier for
// cross-host comparability). An unavailable tier panics at init —
// silently falling back would let a mis-provisioned runner pass a
// gate it never ran.
const kernelTierEnv = "OCULARONE_KERNEL_TIER"

// gemmKernelF32 is the fp32 micro-kernel contract: accumulate a
// gemmMR×gemmNR tile of C (top-left element c, row stride ldc floats)
// from kc-deep packed panels a (gemmMR floats per k step) and b
// (gemmNR floats per k step); accum != 0 starts from C's current
// values, accum == 0 from zero.
type gemmKernelF32 func(c *float32, ldc int, a, b *float32, kc int, accum uintptr)

// gemmKernelQ is the int8 micro-kernel contract: compute a 4×qNR
// int32 accumulator tile (acc, row-major) from pair-interleaved
// panels a (8 int16 per k-pair) and b (2·qNR int8 per k-pair) over k2
// k-pairs.
type gemmKernelQ func(acc *int32, a *int16, b *int8, k2 int)

// A tier may also bind kernHalfQ, the same contract over the left half
// of the tile: columns [0, qNR/2) of the same sliver into the same acc
// layout, the other columns of acc left as they were. The drivers take
// it for a sliver with at most qNR/2 live columns (kernForQ) — every
// n = 9 conv, and the last sliver of a 36-column one — where the full
// tile would spend half its multiply-adds on zero padding. Integer
// sums, so which tile ran never shows in the result.

// gemmNarrowKernelF32 is the narrow fp32 micro-kernel contract:
// compute a narrowMR×narrowNR tile from zero over the full depth k and
// store it column-major into c (c[narrowMR·j + r]). a points at k step
// 0 of the first of two adjacent gemmMR-row PackedA panels of depth k
// (the second starts gemmMR·k floats on), b at a k×narrowNR B panel.
type gemmNarrowKernelF32 func(c, a, b *float32, k int)

// kernelTier binds one consistent kernel + geometry assignment.
type kernelTier struct {
	name   string
	nr     int // fp32 B-sliver / register-tile width
	kc     int // fp32 k block (B panel kc×nr stays L1-resident)
	qnr    int // int8 tile width
	fma    bool
	f32    gemmKernelF32
	narrow gemmNarrowKernelF32 // nil: the tier has no narrow tile
	q      gemmKernelQ
	qhalf  gemmKernelQ // nil: the tier has no half-width int8 tile
	rows   *rowKernels // nil: the row kernels run their Go forms (rowops.go)
}

// Geometry / kernel bindings of the selected tier. Mutated only by
// applyTier (init and SetKernelTier); all driver loops read them per
// call, so a switch takes effect on the next GEMM.
var (
	gemmNR = 8
	gemmKC = 256
	qNR    = 8

	kernF32       gemmKernelF32 = gemm4x8Go
	kernNarrowF32 gemmNarrowKernelF32
	kernQ         gemmKernelQ = gemmQ4x8Go
	kernHalfQ     gemmKernelQ
	kernRows      *rowKernels

	tierTable []kernelTier
	curTier   = kernelTier{name: TierGeneric, nr: 8, kc: 256, qnr: 8, f32: gemm4x8Go, q: gemmQ4x8Go}
)

// Upper bounds across all tiers, for fixed-size driver scratch
// (checksum and accumulator tiles that must not escape to the heap).
const (
	gemmNRMax = 24
	qNRMax    = 32
)

func init() {
	tierTable = append(tierTable, curTier)
	tierTable = append(tierTable, archTiers()...)
	if want := os.Getenv(kernelTierEnv); want != "" {
		if err := SetKernelTier(want); err != nil {
			panic(fmt.Sprintf("tensor: %s: %v", kernelTierEnv, err))
		}
		return
	}
	applyTier(tierTable[len(tierTable)-1])
}

func applyTier(t kernelTier) {
	curTier = t
	gemmNR, gemmKC, qNR = t.nr, t.kc, t.qnr
	kernF32, kernNarrowF32, kernQ, kernHalfQ = t.f32, t.narrow, t.q, t.qhalf
	kernRows = t.rows
}

// KernelTier reports the name of the dispatch tier in effect —
// selected by CPUID feature detection at init, overridden by the
// OCULARONE_KERNEL_TIER environment variable, or forced by
// SetKernelTier. Benchmark headers record it so perf-trajectory JSONs
// are comparable across hosts.
func KernelTier() string { return curTier.name }

// KernelTierFMA reports whether the selected tier's fp32 kernel fuses
// each multiply-add into a single rounding. Non-FMA tiers reproduce
// the scalar reference bit for bit; FMA tiers are drift-bounded
// against it (see abftTol), so parity gates branch on this.
func KernelTierFMA() bool { return curTier.fma }

// KernelTierDesc returns a one-line description of the selected tier
// and its blocking parameters, for benchmark and CLI headers.
func KernelTierDesc() string {
	return fmt.Sprintf("%s (fp32 %dx%d kc=%d, int8 4x%d)",
		curTier.name, gemmMR, curTier.nr, curTier.kc, curTier.qnr)
}

// KernelTierInt8Cols reports the selected tier's int8 tile width: the
// packed int8 drivers cut a GEMM's columns into slivers this wide and
// read the packed weights once per sliver.
func KernelTierInt8Cols() int { return qNR }

// KernelTiers lists the tiers available on this CPU, lowest first.
// The last entry is the default selection.
func KernelTiers() []string {
	names := make([]string, len(tierTable))
	for i, t := range tierTable {
		names[i] = t.name
	}
	return names
}

// SetKernelTier forces a dispatch tier by name, returning an error if
// the tier is unknown or unsupported on this CPU. Packed operands
// (PackedA/PackedQ and their checksums) are tier-independent, so
// previously packed weights remain valid; the switch must simply not
// race a running GEMM. Intended for the per-tier parity battery and
// for pinning benchmarks — production code lets init pick.
func SetKernelTier(name string) error {
	for _, t := range tierTable {
		if t.name == name {
			applyTier(t)
			return nil
		}
	}
	return fmt.Errorf("kernel tier %q not available (have %v)", name, KernelTiers())
}
