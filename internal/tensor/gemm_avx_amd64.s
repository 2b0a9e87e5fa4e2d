//go:build amd64

#include "textflag.h"

// func gemmFMA4x24(c *float32, ldc int, a, b *float32, kc int, accum uintptr)
//
// 4×24 fp32 register tile, the avx2fma tier's stripe tile: Y0..Y11 hold the accumulators (row r in
// Y(3r), Y(3r+1), Y(3r+2)), Y12..Y14 the streamed B panel triple, Y15
// the A broadcast. Each k step issues 12 VFMADD231PS against 3 B
// loads and 4 scalar broadcasts, so the loop is FMA-throughput-bound
// (12 fused ops vs 7 load µops). The tile keeps MR = 4 — YOLO channel
// counts are ≡ 0 (mod 4), so no conv row ever falls to the scalar
// edge — and widens the B sliver to 3 YMM vectors instead. FMA fuses
// each multiply-add into one rounding: results are drift-bounded
// against the scalar reference (see abftTol), not bit-equal — the
// tier's parity gates compare accordingly.
TEXT ·gemmFMA4x24(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), SI
	MOVQ a+16(FP), AX
	MOVQ b+24(FP), BX
	MOVQ kc+32(FP), CX
	MOVQ accum+40(FP), DX
	SHLQ $2, SI                // row stride in bytes
	LEAQ (DI)(SI*1), R8        // row 1
	LEAQ (R8)(SI*1), R9        // row 2
	LEAQ (R9)(SI*1), R10       // row 3
	TESTQ DX, DX
	JZ   fzero
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS (R8), Y3
	VMOVUPS 32(R8), Y4
	VMOVUPS 64(R8), Y5
	VMOVUPS (R9), Y6
	VMOVUPS 32(R9), Y7
	VMOVUPS 64(R9), Y8
	VMOVUPS (R10), Y9
	VMOVUPS 32(R10), Y10
	VMOVUPS 64(R10), Y11
	JMP  floop
fzero:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
floop:
	VMOVAPS (BX), Y12          // B[k, 0:8]
	VMOVAPS 32(BX), Y13        // B[k, 8:16]
	VMOVAPS 64(BX), Y14        // B[k, 16:24]
	VBROADCASTSS (AX), Y15     // a0
	VFMADD231PS Y12, Y15, Y0
	VFMADD231PS Y13, Y15, Y1
	VFMADD231PS Y14, Y15, Y2
	VBROADCASTSS 4(AX), Y15    // a1
	VFMADD231PS Y12, Y15, Y3
	VFMADD231PS Y13, Y15, Y4
	VFMADD231PS Y14, Y15, Y5
	VBROADCASTSS 8(AX), Y15    // a2
	VFMADD231PS Y12, Y15, Y6
	VFMADD231PS Y13, Y15, Y7
	VFMADD231PS Y14, Y15, Y8
	VBROADCASTSS 12(AX), Y15   // a3
	VFMADD231PS Y12, Y15, Y9
	VFMADD231PS Y13, Y15, Y10
	VFMADD231PS Y14, Y15, Y11
	ADDQ $16, AX
	ADDQ $96, BX
	DECQ CX
	JNZ  floop
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, (R8)
	VMOVUPS Y4, 32(R8)
	VMOVUPS Y5, 64(R8)
	VMOVUPS Y6, (R9)
	VMOVUPS Y7, 32(R9)
	VMOVUPS Y8, 64(R9)
	VMOVUPS Y9, (R10)
	VMOVUPS Y10, 32(R10)
	VMOVUPS Y11, 64(R10)
	VZEROUPPER
	RET

// narrowPF is how far ahead of its loads a narrow tile (gemmFMA8x12,
// gemmFMA16x12) prefetches each of its PackedA panels, in bytes: 48
// cache lines, 192 k steps. From the recorded sweep (BENCHMARKS.md,
// "The prefetch distance"): the narrow route's floor falls until about
// 1 KB and is flat within the host's noise from there to 8 KB.
#define narrowPF 3072

// NARROWSTEP is one k step of gemmFMA8x12, s steps into the turn.
#define NARROWSTEP(s) \
	VMOVUPS (16*s)(AX), X12; \
	VINSERTF128 $1, (16*s)(AX)(SI*1), Y12, Y12; \
	VBROADCASTSS (48*s)(BX), Y13; \
	VFMADD231PS Y13, Y12, Y0; \
	VBROADCASTSS (48*s+4)(BX), Y14; \
	VFMADD231PS Y14, Y12, Y1; \
	VBROADCASTSS (48*s+8)(BX), Y15; \
	VFMADD231PS Y15, Y12, Y2; \
	VBROADCASTSS (48*s+12)(BX), Y13; \
	VFMADD231PS Y13, Y12, Y3; \
	VBROADCASTSS (48*s+16)(BX), Y14; \
	VFMADD231PS Y14, Y12, Y4; \
	VBROADCASTSS (48*s+20)(BX), Y15; \
	VFMADD231PS Y15, Y12, Y5; \
	VBROADCASTSS (48*s+24)(BX), Y13; \
	VFMADD231PS Y13, Y12, Y6; \
	VBROADCASTSS (48*s+28)(BX), Y14; \
	VFMADD231PS Y14, Y12, Y7; \
	VBROADCASTSS (48*s+32)(BX), Y15; \
	VFMADD231PS Y15, Y12, Y8; \
	VBROADCASTSS (48*s+36)(BX), Y13; \
	VFMADD231PS Y13, Y12, Y9; \
	VBROADCASTSS (48*s+40)(BX), Y14; \
	VFMADD231PS Y14, Y12, Y10; \
	VBROADCASTSS (48*s+44)(BX), Y15; \
	VFMADD231PS Y15, Y12, Y11

// func gemmFMA8x12(c, a, b *float32, k int)
//
// 8×12 fp32 register tile with the vector lanes along M — the avx2fma
// tier's narrow tile, for column slivers the 24-lane tile would mostly
// pad. Y0..Y11
// hold the accumulators, one C *column* each (8 rows); Y12 is the A
// vector of the k step, built from two adjacent MR = 4 PackedA panels
// (a and a + 16·k bytes: both panels run the full depth k, so the
// panel stride is the depth itself); Y13..Y15 rotate through the 12
// broadcast B values. Each k step issues 12 VFMADD231PS against 14
// loads. Every lane is the same ascending-k fused chain from zero as a
// gemmFMA4x24 lane, so the two tiles agree bit for bit. c receives the
// tile column-major (c[8·j + r]); the driver scatters it into C.
//
// At the shapes that take this tile A is the operand that streams — a
// network's deep layers read ~100 MB of weights a frame, every byte from
// beyond L2 — and it arrives as two streams 16·k bytes apart advancing 16
// bytes a step each, which the hardware prefetcher does not keep fed (the
// kernel ran at 5.6 GB/s of a core's ~9). So a turn is four k steps, one
// cache line of each panel, and opens by prefetching the line narrowPF
// bytes ahead in both. A prefetch never faults: past the last panel it
// touches whatever follows and moves on (TestNarrowKernelAtPageEnd); the
// loads stay inside the 8×k operand.
TEXT ·gemmFMA8x12(SB), NOSPLIT, $0-32
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), AX
	MOVQ b+16(FP), BX
	MOVQ k+24(FP), CX
	MOVQ CX, SI
	SHLQ $4, SI                // bytes between the two A panels
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	VXORPS Y8, Y8, Y8
	VXORPS Y9, Y9, Y9
	VXORPS Y10, Y10, Y10
	VXORPS Y11, Y11, Y11
	SUBQ $4, CX
	JL   ntail
nloop:
	PREFETCHT0 narrowPF(AX)
	PREFETCHT0 narrowPF(AX)(SI*1)
	NARROWSTEP(0)
	NARROWSTEP(1)
	NARROWSTEP(2)
	NARROWSTEP(3)
	ADDQ $64, AX
	ADDQ $192, BX
	SUBQ $4, CX
	JGE  nloop
ntail:
	ADDQ $4, CX
	JZ   ndone
nstep:
	NARROWSTEP(0)              // k % 4 last steps
	ADDQ $16, AX
	ADDQ $48, BX
	DECQ CX
	JNZ  nstep
ndone:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	VMOVUPS Y8, 256(DI)
	VMOVUPS Y9, 288(DI)
	VMOVUPS Y10, 320(DI)
	VMOVUPS Y11, 352(DI)
	VZEROUPPER
	RET

// func gemmFMA4x48(c *float32, ldc int, a, b *float32, kc int, accum uintptr)
//
// gemmFMA4x24 at twice the width, the avx512vnni tier's stripe tile:
// Z0..Z11 hold the 4×48 accumulators (row r in Z(3r), Z(3r+1), Z(3r+2)),
// Z12..Z14 the B panel triple of the k step, Z15..Z18 the four A
// broadcasts. 12 VFMADD231PS against 3 B loads and 4 broadcasts a k
// step, as on the 4×24 tile — with sixteen lanes a vector. A lane of a
// ZMM fused multiply-add rounds as a lane of a YMM one, and accum
// reloads C exactly as the 4×24 tile does, so every C element is the
// same ascending-k fused chain on both FMA tiers, bit for bit.
TEXT ·gemmFMA4x48(SB), NOSPLIT, $0-48
	MOVQ c+0(FP), DI
	MOVQ ldc+8(FP), SI
	MOVQ a+16(FP), AX
	MOVQ b+24(FP), BX
	MOVQ kc+32(FP), CX
	MOVQ accum+40(FP), DX
	SHLQ $2, SI                // row stride in bytes
	LEAQ (DI)(SI*1), R8        // row 1
	LEAQ (R8)(SI*1), R9        // row 2
	LEAQ (R9)(SI*1), R10       // row 3
	TESTQ DX, DX
	JZ   wzero
	VMOVUPS (DI), Z0
	VMOVUPS 64(DI), Z1
	VMOVUPS 128(DI), Z2
	VMOVUPS (R8), Z3
	VMOVUPS 64(R8), Z4
	VMOVUPS 128(R8), Z5
	VMOVUPS (R9), Z6
	VMOVUPS 64(R9), Z7
	VMOVUPS 128(R9), Z8
	VMOVUPS (R10), Z9
	VMOVUPS 64(R10), Z10
	VMOVUPS 128(R10), Z11
	JMP  wloop
wzero:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	PCALIGN $64
wloop:
	VMOVUPS (BX), Z12          // B[k, 0:16]
	VMOVUPS 64(BX), Z13        // B[k, 16:32]
	VMOVUPS 128(BX), Z14       // B[k, 32:48]
	VBROADCASTSS (AX), Z15     // a0
	VBROADCASTSS 4(AX), Z16    // a1
	VBROADCASTSS 8(AX), Z17    // a2
	VBROADCASTSS 12(AX), Z18   // a3
	VFMADD231PS Z12, Z15, Z0
	VFMADD231PS Z13, Z15, Z1
	VFMADD231PS Z14, Z15, Z2
	VFMADD231PS Z12, Z16, Z3
	VFMADD231PS Z13, Z16, Z4
	VFMADD231PS Z14, Z16, Z5
	VFMADD231PS Z12, Z17, Z6
	VFMADD231PS Z13, Z17, Z7
	VFMADD231PS Z14, Z17, Z8
	VFMADD231PS Z12, Z18, Z9
	VFMADD231PS Z13, Z18, Z10
	VFMADD231PS Z14, Z18, Z11
	ADDQ $16, AX
	ADDQ $192, BX
	DECQ CX
	JNZ  wloop
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, (R8)
	VMOVUPS Z4, 64(R8)
	VMOVUPS Z5, 128(R8)
	VMOVUPS Z6, (R9)
	VMOVUPS Z7, 64(R9)
	VMOVUPS Z8, 128(R9)
	VMOVUPS Z9, (R10)
	VMOVUPS Z10, 64(R10)
	VMOVUPS Z11, 128(R10)
	VZEROUPPER
	RET

// NARROWSTEP16 is one k step of gemmFMA16x12, s steps into the turn: the
// A vector joined from the four panels, then each B value broadcast as
// the multiply-add's memory operand.
#define NARROWSTEP16(s) \
	VMOVUPS (16*s)(AX), X12; \
	VINSERTF32X4 $1, (16*s)(AX)(SI*1), Z12, Z12; \
	VINSERTF32X4 $2, (16*s)(AX)(SI*2), Z12, Z12; \
	VINSERTF32X4 $3, (16*s)(AX)(R8*1), Z12, Z12; \
	VFMADD231PS.BCST (48*s)(BX), Z12, Z0; \
	VFMADD231PS.BCST (48*s+4)(BX), Z12, Z1; \
	VFMADD231PS.BCST (48*s+8)(BX), Z12, Z2; \
	VFMADD231PS.BCST (48*s+12)(BX), Z12, Z3; \
	VFMADD231PS.BCST (48*s+16)(BX), Z12, Z4; \
	VFMADD231PS.BCST (48*s+20)(BX), Z12, Z5; \
	VFMADD231PS.BCST (48*s+24)(BX), Z12, Z6; \
	VFMADD231PS.BCST (48*s+28)(BX), Z12, Z7; \
	VFMADD231PS.BCST (48*s+32)(BX), Z12, Z8; \
	VFMADD231PS.BCST (48*s+36)(BX), Z12, Z9; \
	VFMADD231PS.BCST (48*s+40)(BX), Z12, Z10; \
	VFMADD231PS.BCST (48*s+44)(BX), Z12, Z11

// func gemmFMA16x12(c, a, b *float32, k int)
//
// gemmFMA8x12 at twice the height, the avx512vnni tier's narrow tile:
// Z0..Z11 hold one C column each (16 rows); Z12 is the A vector of the
// k step, one XMM load and three VINSERTF32X4 from four adjacent MR = 4
// PackedA panels (a + i·16·k bytes, i = 0..3); each B value is the
// broadcast memory operand of its column's VFMADD231PS. The lanes are
// the same ascending-k fused chains from zero as gemmFMA8x12's and
// gemmFMA4x48's, so all three agree bit for bit. c receives the tile
// column-major (c[16·j + r]).
//
// The four panel streams are prefetched as gemmFMA8x12 prefetches its
// two: a turn is four k steps, one cache line of each panel, and opens
// by prefetching the line narrowPF bytes ahead in all four. The loads
// stay inside the 16×k operand (TestNarrowKernelAtPageEnd).
TEXT ·gemmFMA16x12(SB), NOSPLIT, $0-32
	MOVQ c+0(FP), DI
	MOVQ a+8(FP), AX
	MOVQ b+16(FP), BX
	MOVQ k+24(FP), CX
	MOVQ CX, SI
	SHLQ $4, SI                // bytes from one A panel to the next
	LEAQ (SI)(SI*2), R8        // to the fourth
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	SUBQ $4, CX
	JL   mtail
	PCALIGN $64
mloop:
	PREFETCHT0 narrowPF(AX)
	PREFETCHT0 narrowPF(AX)(SI*1)
	PREFETCHT0 narrowPF(AX)(SI*2)
	PREFETCHT0 narrowPF(AX)(R8*1)
	NARROWSTEP16(0)
	NARROWSTEP16(1)
	NARROWSTEP16(2)
	NARROWSTEP16(3)
	ADDQ $64, AX
	ADDQ $192, BX
	SUBQ $4, CX
	JGE  mloop
mtail:
	ADDQ $4, CX
	JZ   mdone
mstep:
	NARROWSTEP16(0)            // k % 4 last steps
	ADDQ $16, AX
	ADDQ $48, BX
	DECQ CX
	JNZ  mstep
mdone:
	VMOVUPS Z0, (DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VMOVUPS Z4, 256(DI)
	VMOVUPS Z5, 320(DI)
	VMOVUPS Z6, 384(DI)
	VMOVUPS Z7, 448(DI)
	VMOVUPS Z8, 512(DI)
	VMOVUPS Z9, 576(DI)
	VMOVUPS Z10, 640(DI)
	VMOVUPS Z11, 704(DI)
	VZEROUPPER
	RET

// func gemmQ4x16(acc *int32, a unsafe.Pointer, b *int8, k2 int)
//
// 4×16 int8→int32 register tile over pair-interleaved panels, the
// AVX2 widening of gemmQ4x8: each k-pair step sign-extends 32 packed
// B bytes to two 16-word vectors with VPMOVSXBW (replacing the SSE
// PUNPCK+PSRAW dance), broadcasts each row's int16 weight pair with
// VPBROADCASTD, and folds two k steps per lane with VPMADDWD+VPADDD.
// Integer math — any tier reproduces the reference exactly.
TEXT ·gemmQ4x16(SB), NOSPLIT, $0-32
	MOVQ acc+0(FP), DI
	MOVQ a+8(FP), AX
	MOVQ b+16(FP), BX
	MOVQ k2+24(FP), CX
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
qloop16:
	VPMOVSXBW (BX), Y8         // cols 0..7 pairs → words
	VPMOVSXBW 16(BX), Y9       // cols 8..15 pairs
	VPBROADCASTD (AX), Y10     // row 0 weight pair
	VPMADDWD Y8, Y10, Y11
	VPADDD Y11, Y0, Y0
	VPMADDWD Y9, Y10, Y11
	VPADDD Y11, Y1, Y1
	VPBROADCASTD 4(AX), Y10    // row 1
	VPMADDWD Y8, Y10, Y11
	VPADDD Y11, Y2, Y2
	VPMADDWD Y9, Y10, Y11
	VPADDD Y11, Y3, Y3
	VPBROADCASTD 8(AX), Y10    // row 2
	VPMADDWD Y8, Y10, Y11
	VPADDD Y11, Y4, Y4
	VPMADDWD Y9, Y10, Y11
	VPADDD Y11, Y5, Y5
	VPBROADCASTD 12(AX), Y10   // row 3
	VPMADDWD Y8, Y10, Y11
	VPADDD Y11, Y6, Y6
	VPMADDWD Y9, Y10, Y11
	VPADDD Y11, Y7, Y7
	ADDQ $16, AX
	ADDQ $32, BX
	DECQ CX
	JNZ  qloop16
	VMOVDQU Y0, (DI)
	VMOVDQU Y1, 32(DI)
	VMOVDQU Y2, 64(DI)
	VMOVDQU Y3, 96(DI)
	VMOVDQU Y4, 128(DI)
	VMOVDQU Y5, 160(DI)
	VMOVDQU Y6, 192(DI)
	VMOVDQU Y7, 224(DI)
	VZEROUPPER
	RET

// func gemmQuad4x32(acc *int32, a unsafe.Pointer, b *int8, k4 int)
//
// 4×32 u8·s8→int32 register tile with AVX-512 VNNI's byte form. A k-quad
// of the B sliver is 128 bytes — 32 columns × 4 consecutive k steps, each
// byte an activation plus 128 — and loads as two plain ZMM vectors; a row's
// int8 weight quad is one VPBROADCASTD, used against both; VPDPBUSD
// multiplies each lane's four unsigned bytes by the four signed weights and
// adds the products to the lane's int32 (no saturation). Two k-quads a turn
// go into two accumulator sets (Z0..Z7 and Z8..Z15), summed at the end, so
// 16 independent chains cover the instruction's latency. (Weights as
// broadcast memory operands, one per VPDPBUSD, measured 8–12 % slower:
// 20 loads a turn against 12.) The tile is Σ a·(b+128): the driver takes
// the row's 128·Σa back out (PackedQ.comp), exactly, and what is left is
// the sum every other tier computes.
TEXT ·gemmQuad4x32(SB), NOSPLIT, $0-32
	MOVQ acc+0(FP), DI
	MOVQ a+8(FP), AX
	MOVQ b+16(FP), BX
	MOVQ k4+24(FP), CX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	VPXORQ Z8, Z8, Z8
	VPXORQ Z9, Z9, Z9
	VPXORQ Z10, Z10, Z10
	VPXORQ Z11, Z11, Z11
	VPXORQ Z12, Z12, Z12
	VPXORQ Z13, Z13, Z13
	VPXORQ Z14, Z14, Z14
	VPXORQ Z15, Z15, Z15
	SUBQ $2, CX
	JL   quadtail
	PCALIGN $64
quadloop:
	VMOVDQU32 (BX), Z16        // k-quad 0: cols 0..15, four bytes a column
	VMOVDQU32 64(BX), Z17      // cols 16..31
	VMOVDQU32 128(BX), Z18     // k-quad 1
	VMOVDQU32 192(BX), Z19
	VPBROADCASTD (AX), Z20     // k-quad 0: rows 0..3
	VPBROADCASTD 4(AX), Z21
	VPBROADCASTD 8(AX), Z22
	VPBROADCASTD 12(AX), Z23
	VPBROADCASTD 16(AX), Z24   // k-quad 1: rows 0..3
	VPBROADCASTD 20(AX), Z25
	VPBROADCASTD 24(AX), Z26
	VPBROADCASTD 28(AX), Z27
	VPDPBUSD Z20, Z16, Z0
	VPDPBUSD Z20, Z17, Z1
	VPDPBUSD Z24, Z18, Z8
	VPDPBUSD Z24, Z19, Z9
	VPDPBUSD Z21, Z16, Z2
	VPDPBUSD Z21, Z17, Z3
	VPDPBUSD Z25, Z18, Z10
	VPDPBUSD Z25, Z19, Z11
	VPDPBUSD Z22, Z16, Z4
	VPDPBUSD Z22, Z17, Z5
	VPDPBUSD Z26, Z18, Z12
	VPDPBUSD Z26, Z19, Z13
	VPDPBUSD Z23, Z16, Z6
	VPDPBUSD Z23, Z17, Z7
	VPDPBUSD Z27, Z18, Z14
	VPDPBUSD Z27, Z19, Z15
	ADDQ $32, AX
	ADDQ $256, BX
	SUBQ $2, CX
	JGE  quadloop
quadtail:
	ADDQ $2, CX
	JZ   quaddone
	VMOVDQU32 (BX), Z16        // odd k4: the last k-quad
	VMOVDQU32 64(BX), Z17
	VPDPBUSD.BCST (AX), Z16, Z0
	VPDPBUSD.BCST (AX), Z17, Z1
	VPDPBUSD.BCST 4(AX), Z16, Z2
	VPDPBUSD.BCST 4(AX), Z17, Z3
	VPDPBUSD.BCST 8(AX), Z16, Z4
	VPDPBUSD.BCST 8(AX), Z17, Z5
	VPDPBUSD.BCST 12(AX), Z16, Z6
	VPDPBUSD.BCST 12(AX), Z17, Z7
quaddone:
	VPADDD Z8, Z0, Z0
	VPADDD Z9, Z1, Z1
	VPADDD Z10, Z2, Z2
	VPADDD Z11, Z3, Z3
	VPADDD Z12, Z4, Z4
	VPADDD Z13, Z5, Z5
	VPADDD Z14, Z6, Z6
	VPADDD Z15, Z7, Z7
	VMOVDQU32 Z0, (DI)
	VMOVDQU32 Z1, 64(DI)
	VMOVDQU32 Z2, 128(DI)
	VMOVDQU32 Z3, 192(DI)
	VMOVDQU32 Z4, 256(DI)
	VMOVDQU32 Z5, 320(DI)
	VMOVDQU32 Z6, 384(DI)
	VMOVDQU32 Z7, 448(DI)
	VZEROUPPER
	RET

// func gemmQuad4x32Half(acc *int32, a unsafe.Pointer, b *int8, k4 int)
//
// The left half of gemmQuad4x32's tile: columns 0..15 of the same
// 32-column B sliver (the b stride stays 128 bytes a k-quad) into the same
// 4×32 acc layout, whose columns 16..31 are left untouched. Half the
// VPDPBUSD work for a ragged sliver with at most 16 live columns. A weight
// quad meets one B vector here, so it rides as the instruction's
// broadcast memory operand rather than through a register.
TEXT ·gemmQuad4x32Half(SB), NOSPLIT, $0-32
	MOVQ acc+0(FP), DI
	MOVQ a+8(FP), AX
	MOVQ b+16(FP), BX
	MOVQ k4+24(FP), CX
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	SUBQ $2, CX
	JL   halftail
	PCALIGN $64
halfloop:
	VMOVDQU32 (BX), Z16        // cols 0..15 of k-quad 0
	VMOVDQU32 128(BX), Z17     // and of k-quad 1
	VPDPBUSD.BCST (AX), Z16, Z0    // row 0
	VPDPBUSD.BCST 16(AX), Z17, Z4
	VPDPBUSD.BCST 4(AX), Z16, Z1
	VPDPBUSD.BCST 20(AX), Z17, Z5
	VPDPBUSD.BCST 8(AX), Z16, Z2
	VPDPBUSD.BCST 24(AX), Z17, Z6
	VPDPBUSD.BCST 12(AX), Z16, Z3
	VPDPBUSD.BCST 28(AX), Z17, Z7
	ADDQ $32, AX
	ADDQ $256, BX
	SUBQ $2, CX
	JGE  halfloop
halftail:
	ADDQ $2, CX
	JZ   halfdone
	VMOVDQU32 (BX), Z16        // odd k4: the last k-quad
	VPDPBUSD.BCST (AX), Z16, Z0
	VPDPBUSD.BCST 4(AX), Z16, Z1
	VPDPBUSD.BCST 8(AX), Z16, Z2
	VPDPBUSD.BCST 12(AX), Z16, Z3
halfdone:
	VPADDD Z4, Z0, Z0
	VPADDD Z5, Z1, Z1
	VPADDD Z6, Z2, Z2
	VPADDD Z7, Z3, Z3
	VMOVDQU32 Z0, (DI)
	VMOVDQU32 Z1, 128(DI)
	VMOVDQU32 Z2, 256(DI)
	VMOVDQU32 Z3, 384(DI)
	VZEROUPPER
	RET
