package tensor

import (
	"fmt"
	"os"
	"unsafe"
)

// Runtime CPU dispatch for the packed GEMM micro-kernels.
//
// The packed core (pack.go / packq.go) is driven by a small set of
// geometry parameters — the fp32 register-tile width gemmNR, the k
// block gemmKC, the narrow fp32 tile's row count narrowMR, the int8
// tile width qNR and the int8 k-group qK — plus
// the kernel entry points (kernF32, kernQ, and the optional
// kernNarrowF32, kernHalfQ and kernRows). A dispatch *tier* binds one
// consistent assignment of them, and the highest tier the CPU supports
// is selected once at package init:
//
//	generic     pure-Go 4×8 fp32 + 4×8 int8 pair tiles (every arch)
//	sse2        SSE2 assembly 4×8 fp32 MULPS/ADDPS + 4×8 PMADDWD int8
//	avx2fma     AVX2/FMA 4×24 fp32 (12 YMM accumulators, fused
//	            multiply-add) + the 8×12 narrow fp32 tile (lanes along
//	            M) + 4×16 VPMADDWD int8 tiles + the AVX2 row kernels
//	            (epilogue — from fp32 values or, requantizing, from an
//	            int8 tile's accumulators — add, pooling max, quantize,
//	            the conv packs' panel gather — no FMA; rowops.go)
//	avx512vnni  the same fp32 tiles at 512 bits — 4×48 (12 ZMM
//	            accumulators) and the 16×12 narrow tile — + 4×32 int8
//	            tiles accumulated with AVX-512 VPDPBUSD (VNNI bytes: four
//	            u8·s8 products a lane and their add, fused), the tile's
//	            left half for ragged slivers (kernHalfQ), and avx2fma's
//	            row kernels; requires AVX-512 F, BW, DQ, VL and VNNI
//	            (DQ and VL for internal/scene's render kernels, which
//	            this tier binds)
//
// Every tier keeps gemmMR = 4, so the fp32 operand layout (PackedA
// micro-panels and their checksum rows) is identical across tiers:
// fp32 weights packed at plan-compile time stay valid if the tier is
// switched afterwards. The tile that varies there is the *column*
// width — wider B slivers per register block — which only changes
// per-call driver loops and scratch sizes. The int8 layout is the
// tier's: qK k steps sit adjacent per row and column (for a conv, qK
// channels of one kernel tap: packq.go's depthQ) — int16 weight
// pairs against int8 activation pairs on the word tiers (qK = 2; the
// byte form of those instruction sets, PMADDUBSW, saturates at
// 2·255·127 and is not exact), int8 weight quads against offset-byte
// activation quads on avx512vnni (qK = 4, see packq.go). A PackedQ
// records the group it was packed for, and the drivers refuse one
// packed for another group by name: int8 weights are repacked after a
// switch that changes qK.
//
// Parity contract per tier: int8 accumulation is exact integer math
// in every tier — the offset of the byte form is taken back out as an
// integer before the requantization — so int8 results are bit-identical
// to the reference tiles everywhere. fp32 results are bit-identical to the scalar
// reference for the non-FMA tiers (generic, sse2: one separate
// multiply and add per k step). The FMA tiers fuse each multiply-add
// into one rounding, so their fp32 results are drift-bounded against
// the reference — within the worst-case ascending-k summation bound
// (abftTol) — rather than bit-equal; KernelTierFMA reports which
// regime is live so parity gates pick the right comparison. The two FMA
// tiers agree with each other bit for bit: every C element is one
// ascending-k fused chain from zero whatever the tile's width or
// height, a ZMM lane rounds as a YMM lane does, and a partial sum
// stored and reloaded between k blocks is exact. That regime
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
// int32 accumulator tile (acc, row-major) from group-interleaved
// panels over kg k-groups of the tier's qK steps each. On the pair
// tiers a holds 8 int16 per k-pair (4 rows × 2 sign-extended weights)
// and b 2·qNR int8; on the quad tier a holds 16 int8 per k-quad and b
// 4·qNR bytes, each an activation plus 128 (the unsigned operand of
// VPDPBUSD), so its tile is Σ a·(b+128) and the drivers subtract the
// row's 128·Σa (PackedQ.comp). a is untyped because its element type
// is the tier's.
type gemmKernelQ func(acc *int32, a unsafe.Pointer, b *int8, kg int)

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
// 0 of the first of narrowMR/gemmMR adjacent gemmMR-row PackedA panels
// of depth k (each starts gemmMR·k floats after the one before), b at a
// k×narrowNR B panel. narrowMR is the tier's.
type gemmNarrowKernelF32 func(c, a, b *float32, k int)

// kernelTier binds one consistent kernel + geometry assignment.
type kernelTier struct {
	name   string
	nr     int // fp32 B-sliver / register-tile width
	kc     int // fp32 k block (B panel kc×nr stays L1-resident)
	nmr    int // narrow fp32 tile rows (a multiple of gemmMR; 0: no narrow tile)
	qnr    int // int8 tile width
	qk     int // int8 k-group: 2 = int16·int8 pairs, 4 = int8·offset-byte quads
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
	gemmNR   = 8
	gemmKC   = 256
	narrowMR = 0
	qNR      = 8
	qK       = 2

	kernF32       gemmKernelF32 = gemm4x8Go
	kernNarrowF32 gemmNarrowKernelF32
	kernQ         gemmKernelQ = gemmQ4x8Go
	kernHalfQ     gemmKernelQ
	kernRows      *rowKernels

	tierTable []kernelTier
	curTier   = kernelTier{name: TierGeneric, nr: 8, kc: 256, qnr: 8, qk: 2, f32: gemm4x8Go, q: gemmQ4x8Go}
)

// Upper bounds across all tiers, for fixed-size driver scratch
// (checksum and accumulator tiles that must not escape to the heap).
const (
	gemmNRMax = 48
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
	gemmNR, gemmKC, narrowMR, qNR, qK = t.nr, t.kc, t.nmr, t.qnr, t.qk
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
// and its blocking parameters, for benchmark and CLI headers. The int8
// form names the multiply: s16·k2 is int16 weights against int8
// activations two k steps a lane, u8s8·k4 offset-byte activations
// against int8 weights four a lane.
func KernelTierDesc() string {
	form := "s16"
	if curTier.qk == 4 {
		form = "u8s8"
	}
	return fmt.Sprintf("%s (fp32 %dx%d kc=%d, int8 4x%d %s·k%d)",
		curTier.name, gemmMR, curTier.nr, curTier.kc, curTier.qnr, form, curTier.qk)
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
// the tier is unknown or unsupported on this CPU. PackedA and its
// checksums are tier-independent, so packed fp32 weights remain valid;
// a PackedQ is valid on the tiers that share its k-group (the three
// pair tiers, or avx512vnni alone) and refused by the int8 drivers on
// the others — repack int8 weights after crossing that line. The
// switch must not race a running GEMM. Intended for the per-tier parity
// battery and for pinning benchmarks — production code lets init pick.
func SetKernelTier(name string) error {
	for _, t := range tierTable {
		if t.name == name {
			applyTier(t)
			return nil
		}
	}
	return fmt.Errorf("kernel tier %q not available (have %v)", name, KernelTiers())
}
