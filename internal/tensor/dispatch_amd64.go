//go:build amd64

package tensor

import "unsafe"

// CPUID feature probe and the amd64 tier table. SSE2 is part of the
// amd64 baseline so its tier is unconditional; the AVX2/FMA and
// AVX-512/VNNI tiers additionally require the OS to have enabled the
// wider register state (OSXSAVE + XCR0), exactly the checks the
// runtime's own internal/cpu performs.

// cpuidx executes CPUID with the given leaf/subleaf (see
// cpuid_amd64.s).
func cpuidx(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the OS-enabled extended-state mask (see
// cpuid_amd64.s). Only valid when CPUID.1:ECX.OSXSAVE is set.
func xgetbv0() (eax, edx uint32)

// gemmFMA4x24 accumulates a 4-row × 24-column fp32 tile with AVX2/FMA
// (12 YMM accumulators, one fused multiply-add rounding per k step —
// see gemm_avx_amd64.s). Contract: gemmKernelF32.
//
//go:noescape
func gemmFMA4x24(c *float32, ldc int, a, b *float32, kc int, accum uintptr)

// gemmQ4x16 computes a 4×16 int32 tile from int8 pair-interleaved
// panels with AVX2 VPMOVSXBW + VPMADDWD/VPADDD. Contract: gemmKernelQ
// with qNR = 16, qK = 2.
//
//go:noescape
func gemmQ4x16(acc *int32, a unsafe.Pointer, b *int8, k2 int)

// gemmQuad4x32 computes a 4×32 int32 tile with AVX-512 VNNI's byte
// form: VPDPBUSD multiplies 64 offset activation bytes (unsigned) by a
// broadcast quad of int8 weights and adds each lane's four products
// into its accumulator — four k steps a lane, nothing widened on the
// way. Contract: gemmKernelQ with qNR = 32, qK = 4.
//
//go:noescape
func gemmQuad4x32(acc *int32, a unsafe.Pointer, b *int8, k4 int)

// gemmQuad4x32Half computes columns 0..15 of gemmQuad4x32's tile from
// the same 32-column sliver and leaves columns 16..31 of acc untouched.
// Contract: gemmKernelQ, left half only — the optional kernHalfQ.
//
//go:noescape
func gemmQuad4x32Half(acc *int32, a unsafe.Pointer, b *int8, k4 int)

// gemmFMA8x12 computes an 8-row × 12-column fp32 tile with the vector
// lanes along M and the B values broadcast (12 YMM accumulators, the A
// vector joined from two adjacent 4-row panels — see
// gemm_avx_amd64.s). Contract: gemmNarrowKernelF32.
//
//go:noescape
func gemmFMA8x12(c, a, b *float32, k int)

// gemmFMA4x48 is gemmFMA4x24 on 12 ZMM accumulators: a 4-row ×
// 48-column fp32 tile, the avx512vnni tier's stripe tile. Contract:
// gemmKernelF32.
//
//go:noescape
func gemmFMA4x48(c *float32, ldc int, a, b *float32, kc int, accum uintptr)

// gemmFMA16x12 is gemmFMA8x12 on ZMM lanes: a 16-row × 12-column fp32
// tile whose A vector is joined from four adjacent 4-row panels, the
// avx512vnni tier's narrow tile. Contract: gemmNarrowKernelF32 with
// narrowMR = 16.
//
//go:noescape
func gemmFMA16x12(c, a, b *float32, k int)

// CPUID.1:ECX feature bits.
const (
	cpuidFMA     = 1 << 12
	cpuidOSXSAVE = 1 << 27
	cpuidAVX     = 1 << 28
)

// CPUID.7.0:EBX / :ECX feature bits.
const (
	cpuidAVX2       = 1 << 5
	cpuidAVX512F    = 1 << 16
	cpuidAVX512DQ   = 1 << 17
	cpuidAVX512BW   = 1 << 30
	cpuidAVX512VL   = 1 << 31
	cpuidAVX512VNNI = 1 << 11 // ECX
)

// XCR0 state-component masks: SSE+AVX (XMM+YMM), and the three
// AVX-512 components (opmask, ZMM hi256, hi16 ZMM).
const (
	xcr0AVX    = 0x6
	xcr0AVX512 = 0xe0
)

// archTiers probes CPUID and returns the assembly tiers this CPU can
// run, lowest first. Each upper tier has its own fp32 tiles at its
// vector width — 4×24 and 8×12 in YMM on avx2fma, 4×48 and 16×12 in ZMM
// on avx512vnni — with the same fused chains, so the two tiers' fp32
// results are equal bit for bit. A 4×48 tile was measured before, when
// the 4×NR tile still ran every conv of n ≤ 36 and 48 lanes held 9 or
// 36 live ones (bare kernel +30 %, engine unchanged); since the narrow
// tile took those, every conv the stripe tile runs in the three gated
// plans has n = 144, 576 or 2304, all multiples of 48. Bare tile
// GFLOPS per tier: BenchmarkFP32Kernels; kc = 128 for the 4×48 tile
// is BENCHMARKS.md's sweep.
func archTiers() []kernelTier {
	tiers := []kernelTier{
		{name: TierSSE2, nr: 8, kc: 256, qnr: 8, qk: 2, f32: gemm4x8, q: gemmQ4x8},
	}
	maxLeaf, _, _, _ := cpuidx(0, 0)
	if maxLeaf < 7 {
		return tiers
	}
	_, _, c1, _ := cpuidx(1, 0)
	if c1&cpuidOSXSAVE == 0 || c1&cpuidAVX == 0 || c1&cpuidFMA == 0 {
		return tiers
	}
	xlo, _ := xgetbv0()
	if xlo&xcr0AVX != xcr0AVX {
		return tiers
	}
	_, b7, c7, _ := cpuidx(7, 0)
	if b7&cpuidAVX2 == 0 {
		return tiers
	}
	tiers = append(tiers, kernelTier{
		name: TierAVX2FMA, nr: 24, kc: 192, nmr: 8, qnr: 16, qk: 2, fma: true,
		f32: gemmFMA4x24, narrow: gemmFMA8x12, q: gemmQ4x16, rows: avx2Rows,
	})
	// DQ and VL are for the render's random streams (internal/scene:
	// VPMULLQ, VCVTUQQ2PD, VPMOVDB on a YMM); every VNNI part has both.
	const avx512 = cpuidAVX512F | cpuidAVX512DQ | cpuidAVX512BW | cpuidAVX512VL
	if b7&avx512 == avx512 && c7&cpuidAVX512VNNI != 0 && xlo&xcr0AVX512 == xcr0AVX512 {
		tiers = append(tiers, kernelTier{
			name: TierAVX512VNNI, nr: 48, kc: 128, nmr: 16, qnr: 32, qk: 4, fma: true,
			f32: gemmFMA4x48, narrow: gemmFMA16x12, q: gemmQuad4x32, qhalf: gemmQuad4x32Half, rows: avx2Rows,
		})
	}
	return tiers
}
