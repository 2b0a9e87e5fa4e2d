//go:build amd64

package tensor

import "unsafe"

// SSE2 micro-kernels (gemm_amd64.s) — the sse2 dispatch tier. SSE2 is
// part of the amd64 baseline (GOAMD64=v1), so this tier is always
// available and needs no CPUID gate; the AVX2/FMA and VNNI tiers live
// in gemm_avx_amd64.s behind the feature checks in dispatch_amd64.go.
// These kernels use only single-precision multiply/add (no FMA), so
// every lane reproduces the scalar reference rounding bit for bit —
// they are the pinned bit-exact parity baseline the FMA tiers are
// drift-checked against.

// gemm4x8 accumulates a 4-row × 8-column float32 tile of C from one
// kc-deep pair of packed panels: a is an A micro-panel (4 floats per k
// step, 16-byte aligned), b a B panel (8 floats per k step, 16-byte
// aligned), c the tile's top-left element with row stride ldc floats
// (any alignment). accum != 0 starts from C's current values (later
// k-blocks); accum == 0 starts from zero. Each C element receives one
// separate single-precision multiply and add per k step, in ascending
// k order — the reference kernel's exact op chain.
//
//go:noescape
func gemm4x8(c *float32, ldc int, a, b *float32, kc int, accum uintptr)

// gemmQ4x8 computes a 4×8 int32 accumulator tile from int8 packed
// panels over the full depth (k2 k-pairs): a holds sign-extended int16
// weight pairs (8 per k-pair: 4 rows × 2), b int8 column pairs (16 per
// k-pair: 8 columns × 2, 16-byte aligned). acc receives the 32 int32
// sums row-major. Pair products are combined with PMADDWD — exact in
// int32, so any grouping matches the scalar reference.
//
//go:noescape
func gemmQ4x8(acc *int32, a unsafe.Pointer, b *int8, k2 int)

// interleavePairs zips n bytes of a and b into dst (dst[2i] = a[i],
// dst[2i+1] = b[i]) — how the pair tiers lay two k rows side by side
// for the pair-consuming int8 kernels: two matrix rows in
// qMatrixB.pack, two quantized channel rows in newQConvB. Plain byte
// movement.
//
//go:noescape
func interleavePairs(dst, a, b *int8, n int)

// interleaveQuads zips n bytes of a, b, c and d into dst (dst[4i+s] =
// the s-th source's byte i) — the same step for the quad-consuming
// kernel: four rows side by side.
//
//go:noescape
func interleaveQuads(dst, a, b, c, d *int8, n int)
