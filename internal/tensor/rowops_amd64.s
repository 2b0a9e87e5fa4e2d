//go:build amd64

#include "textflag.h"

// Offsets into logisticConsts (rowops_amd64.go), 32 bytes a vector.
#define cSign  0
#define cLo    32
#define cLog2e 64
#define cTHi   96
#define cRound 128
#define cLn2Hi 160
#define cLn2Lo 192
#define cP0    224
#define cP1    256
#define cP2    288
#define cP3    320
#define cP4    352
#define cP5    384
#define cBias  416
#define cBias2 448
#define cOne   480
#define cTiny  512

// TAILMASK loads into Y15 the mask of the first CX (< 8) lanes.
#define TAILMASK \
	MOVQ $8, BX \
	SUBQ CX, BX \
	VMOVDQU (R13)(BX*4), Y15

// func epilogueRowsAVX2(p *float32, rows, ld, w int, scale, shift *float32, act EpAct, acc *int32, lda int, comp *int32, rowScale *float32)
//
// One pass over a rows×w block: per 8-lane vector, the value — p's own,
// or with acc non-nil the accumulators at the same place of acc's rows
// (lda apart) requantized: VPSUBD of comp[r] (wrapping, as the Go form's
// int32 subtraction), VCVTDQ2PS (round to nearest even, as CVTSL2SS),
// VMULPS by rowScale[r] — then the row's affine (VMULPS by scale then
// VADDPS of shift, either absent when its pointer is nil), then the
// activation: none, ReLU (VMAXPS with the value as the second source, so
// −0 and NaN pass as `if v < 0` leaves them), or the logistic
// denominator d = 1 + e^(−v) — rowops.go's logisticDenom, operation for
// operation — and v/d (SiLU) or 1/d (sigmoid). Y15 masks the vector: all
// lanes, or the row's tail, which takes one more turn of the loop. R11
// holds acc's row minus p's, so one pointer, AX, walks both rows. The
// int32 source's steps and the tail's mask sit out of line, so an fp32
// row's whole vectors jump to neither.
TEXT ·epilogueRowsAVX2(SB), NOSPLIT, $0-88
	MOVQ p+0(FP), DI
	MOVQ ld+16(FP), R10
	MOVQ scale+32(FP), SI
	MOVQ shift+40(FP), DX
	MOVQ act+48(FP), R12
	MOVQ acc+56(FP), R14
	SHLQ $2, R10               // row stride in bytes
	LEAQ ·logisticConsts(SB), R8
	LEAQ ·tailMasks(SB), R13
	VMOVUPS cLo(R8), Y8
	VMOVUPS cTHi(R8), Y9
	VMOVUPS cOne(R8), Y11
	VMOVUPS cBias2(R8), Y12
	VXORPS  Y13, Y13, Y13
	XORQ R9, R9                // row
erow:
	TESTQ SI, SI
	JZ    enoscale
	VBROADCASTSS (SI)(R9*4), Y6
enoscale:
	TESTQ DX, DX
	JZ    enoshift
	VBROADCASTSS (DX)(R9*4), Y7
enoshift:
	MOVQ DI, AX
	TESTQ R14, R14
	JNZ   eaccrow
ecols:
	VPCMPEQD Y15, Y15, Y15
	MOVQ w+24(FP), CX
	SUBQ $8, CX                // CX+8 columns left
	JL   etail
ecol:
	TESTQ R14, R14
	JNZ   eacc
	VMASKMOVPS (AX), Y15, Y0
escale:
	TESTQ SI, SI
	JZ    eshift
	VMULPS Y6, Y0, Y0          // v·scale
eshift:
	TESTQ DX, DX
	JZ    eact
	VADDPS Y7, Y0, Y0          // + shift
eact:
	CMPQ R12, $2
	JEQ  erelu
	TESTQ R12, R12
	JZ   estore
	VXORPS cSign(R8), Y0, Y1   // x = −v
	VMAXPS Y1, Y8, Y1          // lo > x ? lo : x (a NaN stays)
	VMULPS cLog2e(R8), Y1, Y2  // t = x·log₂e
	VMINPS Y2, Y9, Y2          // tHi < t ? tHi : t
	VADDPS cRound(R8), Y2, Y2  // m = t + 1.5·2²³
	VSUBPS cRound(R8), Y2, Y3  // n = m − 1.5·2²³
	VMULPS cLn2Hi(R8), Y3, Y4
	VSUBPS Y4, Y1, Y1          // r = x − n·ln2Hi
	VMULPS cLn2Lo(R8), Y3, Y4
	VSUBPS Y4, Y1, Y1          // r −= n·ln2Lo
	VMULPS cP0(R8), Y1, Y4
	VADDPS cP1(R8), Y4, Y4
	VMULPS Y1, Y4, Y4
	VADDPS cP2(R8), Y4, Y4
	VMULPS Y1, Y4, Y4
	VADDPS cP3(R8), Y4, Y4
	VMULPS Y1, Y4, Y4
	VADDPS cP4(R8), Y4, Y4
	VMULPS Y1, Y4, Y4
	VADDPS cP5(R8), Y4, Y4
	VMULPS Y1, Y1, Y5          // r²
	VMULPS Y5, Y4, Y4
	VADDPS Y1, Y4, Y4          // q = P(r)·r² + r
	VPADDD cBias(R8), Y2, Y2
	VPSLLD $23, Y2, Y2         // s = 2ⁿ
	VPSUBD Y2, Y12, Y3         // sInv = 2⁻ⁿ
	VADDPS Y11, Y3, Y5         // c = 1 + sInv
	VCMPPS $1, cTiny(R8), Y3, Y1
	VANDPS Y1, Y3, Y3          // lo = sInv < 2⁻²³ ? sInv : 0
	VADDPS Y3, Y4, Y4          // q + lo
	VADDPS Y4, Y5, Y5          // u = c + (q + lo)
	VMULPS Y5, Y2, Y2          // d = s·u
	CMPQ R12, $1
	JNE  esigmoid
	VDIVPS Y2, Y0, Y0          // v / d
	JMP  estore
esigmoid:
	VDIVPS Y2, Y11, Y0         // 1 / d
	JMP  estore
erelu:
	VMAXPS Y0, Y13, Y0         // 0 > v ? 0 : v
estore:
	VMASKMOVPS Y0, Y15, (AX)
	ADDQ $32, AX
	SUBQ $8, CX
	JGE  ecol
	CMPQ CX, $-8
	JG   etail
	ADDQ R10, DI
	INCQ R9
	CMPQ R9, rows+8(FP)
	JLT  erow
	VZEROUPPER
	RET
etail:                         // the mask of the last CX+8 lanes
	MOVQ CX, BX
	NEGQ BX
	VMOVDQU (R13)(BX*4), Y15
	JMP  ecol
eaccrow:                       // row r of acc, and its comp and rowScale
	MOVQ lda+64(FP), R11
	IMULQ R9, R11
	LEAQ (R14)(R11*4), R11
	SUBQ DI, R11
	MOVQ comp+72(FP), BX
	VPBROADCASTD (BX)(R9*4), Y10
	MOVQ rowScale+80(FP), BX
	VBROADCASTSS (BX)(R9*4), Y14
	JMP ecols
eacc:
	VMASKMOVPS (AX)(R11*1), Y15, Y0
	VPSUBD    Y10, Y0, Y0      // acc − comp
	VCVTDQ2PS Y0, Y0
	VMULPS    Y14, Y0, Y0      // ·rowScale
	JMP       escale

// func addRowAVX2(dst, src *float32, n int)
//
// dst[i] += src[i]. The source is VADDPS's first source, as it is in the
// ADDSS the compiler emits for `dst[i] += v`, so when both operands are
// NaN the same payload survives.
TEXT ·addRowAVX2(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
aloop:
	CMPQ CX, $8
	JLT  atail
	VMOVUPS (SI), Y1
	VADDPS  (DI), Y1, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  aloop
atail:
	TESTQ CX, CX
	JZ    adone
	LEAQ ·tailMasks(SB), R13
	TAILMASK
	VMASKMOVPS (SI), Y15, Y1
	VMASKMOVPS (DI), Y15, Y0
	VADDPS Y0, Y1, Y0
	VMASKMOVPS Y0, Y15, (DI)
adone:
	VZEROUPPER
	RET

// func maxRowAVX2(best, v *float32, n int)
//
// best[i] = v[i] > best[i] ? v[i] : best[i] — VMAXPS with best as the
// second source, which is also what it returns for a NaN or for ±0
// against ∓0, as the scalar `if v > best` does.
TEXT ·maxRowAVX2(SB), NOSPLIT, $0-24
	MOVQ best+0(FP), DI
	MOVQ v+8(FP), SI
	MOVQ n+16(FP), CX
mloop:
	CMPQ CX, $8
	JLT  mtail
	VMOVUPS (SI), Y1
	VMAXPS  (DI), Y1, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	SUBQ $8, CX
	JMP  mloop
mtail:
	TESTQ CX, CX
	JZ    mdone
	LEAQ ·tailMasks(SB), R13
	TAILMASK
	VMASKMOVPS (SI), Y15, Y1
	VMASKMOVPS (DI), Y15, Y0
	VMAXPS Y0, Y1, Y0
	VMASKMOVPS Y0, Y15, (DI)
mdone:
	VZEROUPPER
	RET

// QROUND turns the eight products v·inv in y into int32 the way
// quantizeRound does: add 0.5 carrying the product's sign, convert
// truncating. NaN and anything past int32 come out as 0x80000000, which
// the saturating packs below land on −128 — where the Go form's clamp
// puts the same conversion result on amd64. t is scratch.
#define QROUND(y, t) \
	VANDPS Y10, y, t \
	VORPS  Y11, t, t \
	VADDPS t, y, y \
	VCVTTPS2DQ y, y

// func quantizeRowAVX2(dst *int8, src *float32, n int, inv float32, flip uint32)
//
// dst[i] = quantizeRound(src[i], inv, 0) ^ flip: VMULPS, QROUND, then
// VPACKSSDW and VPACKSSWB — the two saturating packs are the clamp to
// [−128, 127] — and a byte XOR. Thirty-two values a turn (the packs work
// per 128-bit lane; one VPERMD puts the dwords back in order), then
// eight, then a masked tail stored byte by byte.
TEXT ·quantizeRowAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	VBROADCASTSS inv+24(FP), Y8
	MOVL flip+28(FP), AX
	VMOVD AX, X9
	VPBROADCASTD X9, Y9
	LEAQ ·quantConsts(SB), R8
	VMOVDQU (R8), Y10
	VMOVDQU 32(R8), Y11
	VMOVDQU 64(R8), Y12
q32:
	CMPQ CX, $32
	JLT  q8
	VMULPS (SI), Y8, Y0
	VMULPS 32(SI), Y8, Y1
	VMULPS 64(SI), Y8, Y2
	VMULPS 96(SI), Y8, Y3
	QROUND(Y0, Y4)
	QROUND(Y1, Y5)
	QROUND(Y2, Y6)
	QROUND(Y3, Y7)
	VPACKSSDW Y1, Y0, Y0
	VPACKSSDW Y3, Y2, Y2
	VPACKSSWB Y2, Y0, Y0
	VPERMD Y0, Y12, Y0
	VPXOR  Y9, Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ $128, SI
	ADDQ $32, DI
	SUBQ $32, CX
	JMP  q32
q8:
	CMPQ CX, $8
	JLT  qtail
	VMULPS (SI), Y8, Y0
	QROUND(Y0, Y4)
	VEXTRACTI128 $1, Y0, X1
	VPACKSSDW X1, X0, X0
	VPACKSSWB X0, X0, X0
	VPXOR  X9, X0, X0
	VMOVQ  X0, (DI)
	ADDQ $32, SI
	ADDQ $8, DI
	SUBQ $8, CX
	JMP  q8
qtail:
	TESTQ CX, CX
	JZ   qdone
	LEAQ ·tailMasks(SB), R13
	TAILMASK
	VMASKMOVPS (SI), Y15, Y0
	VMULPS Y8, Y0, Y0
	QROUND(Y0, Y4)
	VEXTRACTI128 $1, Y0, X1
	VPACKSSDW X1, X0, X0
	VPACKSSWB X0, X0, X0
	VPXOR  X9, X0, X0
	VMOVQ  X0, AX
qbyte:
	MOVB AX, (DI)
	SHRQ $8, AX
	INCQ DI
	DECQ CX
	JNZ  qbyte
qdone:
	VZEROUPPER
	RET

// GATHER2Y / GATHER2X move the eight / four stride-2 dwords of output
// index i on: two loads, the second a dword early so that it ends on the
// last dword the move needs, then the first's even dwords and the
// second's odd ones (VSHUFPS $0xD8) and, for eight, the 128-bit lanes'
// halves put in order (VPERMPD $0xD8).
#define GATHER2Y(i) \
	VMOVUPS (R14)(i*8), Y0 \
	VMOVUPS 28(R14)(i*8), Y1 \
	VSHUFPS $0xD8, Y1, Y0, Y0 \
	VPERMPD $0xD8, Y0, Y0 \
	VMOVUPS Y0, (R10)(i*4)
#define GATHER2X(i) \
	VMOVUPS (R14)(i*8), X0 \
	VMOVUPS 12(R14)(i*8), X1 \
	VSHUFPS $0xD8, X1, X0, X0 \
	VMOVUPS X0, (R10)(i*4)

// func gatherRowsAVX2(dst unsafe.Pointer, ld int, src unsafe.Pointer, taps *int32, ntaps, t0, plane, rows int, segs *panelSeg, nsegs, sw int)
//
// The im2col move, in dwords: panel row r (ld apart) is tap t0+r of the
// planes at src — taps[t] into a plane, plane on to the next when t wraps
// at ntaps — and segment {off, cnt, pos} of it is cnt source dwords sw
// apart from pos, stored from off. Only those dwords are read and only
// their cnt places written, the way memmove cuts a short copy: a run of
// eight or more in vectors of eight, the last of which ends where the
// run ends, over whatever the one before it moved; four to seven as two
// such vectors of four; two or three (stride 1) as two qwords; what is
// left dword by dword. No run length is special: 24 and 12 are three and
// two moves. A stride-2 run may end where x.Data does — a 1×1 s2 shortcut
// gathers from the tensor itself — which is why GATHER2 loads as it does.
TEXT ·gatherRowsAVX2(SB), NOSPLIT, $0-88
	MOVQ dst+0(FP), DI
	MOVQ ld+8(FP), R8
	MOVQ src+16(FP), SI
	MOVQ taps+24(FP), R9
	MOVQ t0+40(FP), R11
	MOVQ rows+56(FP), R13
	SHLQ $2, R8
	TESTQ R13, R13
	JLE  gdone
	CMPQ nsegs+72(FP), $0
	JLE  gdone
grow:
	MOVLQSX (R9)(R11*4), AX
	LEAQ (SI)(AX*4), AX        // this row's tap of this plane
	INCQ R11
	CMPQ R11, ntaps+32(FP)
	JNE  gsegs
	XORQ R11, R11
	MOVQ plane+48(FP), R12
	LEAQ (SI)(R12*4), SI
gsegs:
	MOVQ segs+64(FP), BX
	MOVQ nsegs+72(FP), DX
gseg:
	MOVLQSX 0(BX), R10
	MOVLQSX 4(BX), CX
	MOVLQSX 8(BX), R14
	LEAQ (DI)(R10*4), R10      // to
	LEAQ (AX)(R14*4), R14      // from
	XORQ R12, R12              // output index
	CMPQ sw+80(FP), $1
	JNE  g2
	CMPQ CX, $8
	JLT  g1x
	SUBQ $8, CX                // where the last eight start
	JMP  g1t
g1y:
	VMOVDQU (R14)(R12*4), Y0
	VMOVDQU Y0, (R10)(R12*4)
	ADDQ $8, R12
g1t:
	CMPQ R12, CX
	JLT  g1y
	VMOVDQU (R14)(CX*4), Y0
	VMOVDQU Y0, (R10)(CX*4)
	JMP  gnext
g1x:
	CMPQ CX, $4
	JLT  g1q
	VMOVDQU (R14), X0
	VMOVDQU -16(R14)(CX*4), X1
	VMOVDQU X0, (R10)
	VMOVDQU X1, -16(R10)(CX*4)
	JMP  gnext
g1q:
	CMPQ CX, $2
	JLT  g1d
	VMOVQ (R14), X0
	VMOVQ -8(R14)(CX*4), X1
	VMOVQ X0, (R10)
	VMOVQ X1, -8(R10)(CX*4)
	JMP  gnext
g1d:
	TESTQ CX, CX
	JLE  gnext
	VMOVD (R14), X0
	VMOVD X0, (R10)
	JMP  gnext
g2:
	CMPQ CX, $8
	JLT  g2x
	SUBQ $8, CX
	JMP  g2t
g2y:
	GATHER2Y(R12)
	ADDQ $8, R12
g2t:
	CMPQ R12, CX
	JLT  g2y
	GATHER2Y(CX)
	JMP  gnext
g2x:
	CMPQ CX, $4
	JLT  g2d
	SUBQ $4, CX
	GATHER2X(R12)
	GATHER2X(CX)
	JMP  gnext
g2d:
	CMPQ R12, CX
	JGE  gnext
	VMOVD (R14)(R12*8), X0
	VMOVD X0, (R10)(R12*4)
	INCQ R12
	JMP  g2d
gnext:
	ADDQ $12, BX
	DECQ DX
	JNZ  gseg
	ADDQ R8, DI
	DECQ R13
	JNZ  grow
gdone:
	VZEROUPPER
	RET
