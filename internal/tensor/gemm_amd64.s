//go:build amd64

#include "textflag.h"

// func gemm4x8(c *float32, ldc int, a, b *float32, kc int, accum uintptr)
//
// 4×8 fp32 register tile: X0..X7 hold the accumulators (row r in
// X(2r), X(2r+1)), X8/X9 the streamed B panel pair, X10 the A panel
// quad, X11/X12 broadcast and product temps. MULPS/ADDPS only — SSE
// has no FMA, which is exactly what keeps each lane's rounding
// identical to the scalar reference kernel.
TEXT ·gemm4x8(SB), NOSPLIT, $0-48
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
	JZ   zero
	MOVUPS (DI), X0
	MOVUPS 16(DI), X1
	MOVUPS (R8), X2
	MOVUPS 16(R8), X3
	MOVUPS (R9), X4
	MOVUPS 16(R9), X5
	MOVUPS (R10), X6
	MOVUPS 16(R10), X7
	JMP  loop
zero:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
loop:
	MOVAPS (BX), X8            // B[k, 0:4]
	MOVAPS 16(BX), X9          // B[k, 4:8]
	MOVAPS (AX), X10           // A[0:4, k]
	PSHUFD $0x00, X10, X11     // broadcast a0
	MOVAPS X8, X12
	MULPS  X11, X12
	ADDPS  X12, X0
	MULPS  X9, X11
	ADDPS  X11, X1
	PSHUFD $0x55, X10, X11     // broadcast a1
	MOVAPS X8, X12
	MULPS  X11, X12
	ADDPS  X12, X2
	MULPS  X9, X11
	ADDPS  X11, X3
	PSHUFD $0xAA, X10, X11     // broadcast a2
	MOVAPS X8, X12
	MULPS  X11, X12
	ADDPS  X12, X4
	MULPS  X9, X11
	ADDPS  X11, X5
	PSHUFD $0xFF, X10, X11     // broadcast a3
	MULPS  X11, X8             // B lo is dead after this k step
	ADDPS  X8, X6
	MULPS  X9, X11
	ADDPS  X11, X7
	ADDQ $16, AX
	ADDQ $32, BX
	DECQ CX
	JNZ  loop
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, (R8)
	MOVUPS X3, 16(R8)
	MOVUPS X4, (R9)
	MOVUPS X5, 16(R9)
	MOVUPS X6, (R10)
	MOVUPS X7, 16(R10)
	RET

// func gemmQ4x8(acc *int32, a unsafe.Pointer, b *int8, k2 int)
//
// 4×8 int8→int32 register tile over pair-interleaved panels: each
// k-pair step sign-extends 16 packed B bytes to two int16 vectors
// (PUNPCK*BW + PSRAW), broadcasts each row's pre-extended int16 weight
// pair, and folds two k steps per lane with PMADDWD — integer math, so
// the pairing is exact and order-free.
TEXT ·gemmQ4x8(SB), NOSPLIT, $0-32
	MOVQ acc+0(FP), DI
	MOVQ a+8(FP), AX
	MOVQ b+16(FP), BX
	MOVQ k2+24(FP), CX
	PXOR X0, X0
	PXOR X1, X1
	PXOR X2, X2
	PXOR X3, X3
	PXOR X4, X4
	PXOR X5, X5
	PXOR X6, X6
	PXOR X7, X7
qloop:
	MOVO (BX), X8              // 8 columns × 2 k, int8
	MOVO X8, X9
	PUNPCKLBW X8, X8           // cols 0..3 pairs → words
	PSRAW $8, X8               // sign-extend
	PUNPCKHBW X9, X9           // cols 4..7 pairs
	PSRAW $8, X9
	MOVL (AX), R11             // row 0 weight pair (int16×2)
	MOVQ R11, X10
	PSHUFD $0x00, X10, X10
	MOVO X8, X11
	PMADDWL X10, X11
	PADDL X11, X0
	MOVO X9, X11
	PMADDWL X10, X11
	PADDL X11, X1
	MOVL 4(AX), R11            // row 1
	MOVQ R11, X10
	PSHUFD $0x00, X10, X10
	MOVO X8, X11
	PMADDWL X10, X11
	PADDL X11, X2
	MOVO X9, X11
	PMADDWL X10, X11
	PADDL X11, X3
	MOVL 8(AX), R11            // row 2
	MOVQ R11, X10
	PSHUFD $0x00, X10, X10
	MOVO X8, X11
	PMADDWL X10, X11
	PADDL X11, X4
	MOVO X9, X11
	PMADDWL X10, X11
	PADDL X11, X5
	MOVL 12(AX), R11           // row 3
	MOVQ R11, X10
	PSHUFD $0x00, X10, X10
	MOVO X8, X11
	PMADDWL X10, X11
	PADDL X11, X6
	MOVO X9, X11
	PMADDWL X10, X11
	PADDL X11, X7
	ADDQ $16, AX
	ADDQ $16, BX
	DECQ CX
	JNZ  qloop
	MOVOU X0, (DI)
	MOVOU X1, 16(DI)
	MOVOU X2, 32(DI)
	MOVOU X3, 48(DI)
	MOVOU X4, 64(DI)
	MOVOU X5, 80(DI)
	MOVOU X6, 96(DI)
	MOVOU X7, 112(DI)
	RET

// func interleavePairs(dst, a, b *int8, n int)
//
// dst[2i] = a[i], dst[2i+1] = b[i] for i < n: PUNPCKLBW/PUNPCKHBW zip
// sixteen columns per step, then eight, then single bytes — the k-pair
// interleave of the int8 B operands.
TEXT ·interleavePairs(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
zip16:
	CMPQ CX, $16
	JLT  zip8
	MOVOU (SI), X0
	MOVOU (DX), X1
	MOVO  X0, X2
	PUNPCKLBW X1, X0
	PUNPCKHBW X1, X2
	MOVOU X0, (DI)
	MOVOU X2, 16(DI)
	ADDQ $16, SI
	ADDQ $16, DX
	ADDQ $32, DI
	SUBQ $16, CX
	JMP  zip16
zip8:
	CMPQ CX, $8
	JLT  zip1
	MOVQ (SI), X0
	MOVQ (DX), X1
	PUNPCKLBW X1, X0
	MOVOU X0, (DI)
	ADDQ $8, SI
	ADDQ $8, DX
	ADDQ $16, DI
	SUBQ $8, CX
zip1:
	TESTQ CX, CX
	JZ   zipdone
	MOVB (SI), AX
	MOVB (DX), BX
	MOVB AX, (DI)
	MOVB BX, 1(DI)
	INCQ SI
	INCQ DX
	ADDQ $2, DI
	DECQ CX
	JMP  zip1
zipdone:
	RET

// func interleaveQuads(dst, a, b, c, d *int8, n int)
//
// dst[4i+s] = the s-th source's byte i for i < n: PUNPCK?BW zips a with b
// and c with d into byte pairs, PUNPCK?WL zips the pairs into quads —
// sixteen columns per step, then four, then single bytes. The k-quad
// interleave of the int8 B operands on the quad tier.
TEXT ·interleaveQuads(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ c+24(FP), R8
	MOVQ d+32(FP), R9
	MOVQ n+40(FP), CX
quad16:
	CMPQ CX, $16
	JLT  quad4
	MOVOU (SI), X0
	MOVOU (DX), X1
	MOVOU (R8), X2
	MOVOU (R9), X3
	MOVO  X0, X4
	PUNPCKLBW X1, X0           // a0 b0 … a7 b7
	PUNPCKHBW X1, X4           // a8 b8 … a15 b15
	MOVO  X2, X5
	PUNPCKLBW X3, X2           // c0 d0 … c7 d7
	PUNPCKHBW X3, X5
	MOVO  X0, X6
	PUNPCKLWL X2, X0           // columns 0..3
	PUNPCKHWL X2, X6           // 4..7
	MOVO  X4, X7
	PUNPCKLWL X5, X4           // 8..11
	PUNPCKHWL X5, X7           // 12..15
	MOVOU X0, (DI)
	MOVOU X6, 16(DI)
	MOVOU X4, 32(DI)
	MOVOU X7, 48(DI)
	ADDQ $16, SI
	ADDQ $16, DX
	ADDQ $16, R8
	ADDQ $16, R9
	ADDQ $64, DI
	SUBQ $16, CX
	JMP  quad16
quad4:
	CMPQ CX, $4
	JLT  quad1
	MOVL (SI), X0
	MOVL (DX), X1
	MOVL (R8), X2
	MOVL (R9), X3
	PUNPCKLBW X1, X0
	PUNPCKLBW X3, X2
	PUNPCKLWL X2, X0
	MOVOU X0, (DI)
	ADDQ $4, SI
	ADDQ $4, DX
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $16, DI
	SUBQ $4, CX
	JMP  quad4
quad1:
	TESTQ CX, CX
	JZ   quaddone
	MOVB (SI), AX
	MOVB (DX), BX
	MOVB AX, (DI)
	MOVB BX, 1(DI)
	MOVB (R8), AX
	MOVB (R9), BX
	MOVB AX, 2(DI)
	MOVB BX, 3(DI)
	INCQ SI
	INCQ DX
	INCQ R8
	INCQ R9
	ADDQ $4, DI
	DECQ CX
	JMP  quad1
quaddone:
	RET
