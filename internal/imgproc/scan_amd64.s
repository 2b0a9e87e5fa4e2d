#include "textflag.h"

// Offsets into scanConsts (scan_amd64.go).
#define SPREAD 0
#define RGB 64
#define RG 80
#define BLUE 96
#define WRG 112
#define WB 116
#define LUMATOP 120

// LUMA16 sets x to the luma of the sixteen pixels loaded in x, using t
// (Z20 = SPREAD, Z21 = RG, Z22 = BLUE, Z23 / Z24 = their weights).
#define LUMA16(x, t) \
	VPERMD   x, Z20, x  \
	VPSHUFB  Z22, x, t  \
	VPSHUFB  Z21, x, x  \
	VPMADDWD Z23, x, x  \
	VPMADDWD Z24, t, t  \
	VPADDD   t, x, x

// func lumaRangeAVX512(pix *uint8, stride, rows, n int) (lo, hi int32)
//
// Z10 and Z11 hold each lane's least and greatest luma. A row is n/16
// whole blocks (K1: 48 bytes) and, when n%16 != 0, one partial block of
// r = n%16 pixels: K3 loads its 3r bytes and K4 lets only its r lanes
// into the least; the other lanes load zeros, luma 0, which no maximum
// takes over a greatest that starts at 0.
TEXT ·lumaRangeAVX512(SB), NOSPLIT, $0-40
	MOVQ pix+0(FP), SI
	MOVQ stride+8(FP), DX
	MOVQ rows+16(FP), R9
	MOVQ n+24(FP), R10
	LEAQ ·scanConsts(SB), R8

	VMOVDQU32       SPREAD(R8), Z20
	VBROADCASTI32X4 RG(R8), Z21
	VBROADCASTI32X4 BLUE(R8), Z22
	VPBROADCASTD    WRG(R8), Z23
	VPBROADCASTD    WB(R8), Z24
	VPBROADCASTD    LUMATOP(R8), Z10
	VPXORD          Z11, Z11, Z11

	MOVQ  $0xffffffffffff, AX
	KMOVQ AX, K1
	MOVQ  R10, R11
	ANDQ  $15, R11
	MOVQ  R11, CX
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K4
	LEAQ  (R11)(R11*2), CX
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVQ AX, K3
	SHRQ  $4, R10

lumaRow:
	MOVQ  SI, DI
	MOVQ  R10, CX
	TESTQ CX, CX
	JZ    lumaTail

lumaBlock:
	VMOVDQU8.Z (DI), K1, Z0
	LUMA16(Z0, Z1)
	VPMINSD    Z0, Z10, Z10
	VPMAXSD    Z0, Z11, Z11
	ADDQ       $48, DI
	DECQ       CX
	JNZ        lumaBlock

lumaTail:
	TESTQ      R11, R11
	JZ         lumaNext
	VMOVDQU8.Z (DI), K3, Z0
	LUMA16(Z0, Z1)
	VPMINSD    Z0, Z10, K4, Z10
	VPMAXSD    Z0, Z11, Z11

lumaNext:
	ADDQ DX, SI
	DECQ R9
	JNZ  lumaRow

	VEXTRACTI64X4 $1, Z10, Y0
	VPMINSD       Y0, Y10, Y10
	VEXTRACTI128  $1, Y10, X0
	VPMINSD       X0, X10, X10
	VPSHUFD       $0x4e, X10, X0
	VPMINSD       X0, X10, X10
	VPSHUFD       $0xb1, X10, X0
	VPMINSD       X0, X10, X10
	VMOVD         X10, AX
	MOVL          AX, lo+32(FP)

	VEXTRACTI64X4 $1, Z11, Y0
	VPMAXSD       Y0, Y11, Y11
	VEXTRACTI128  $1, Y11, X0
	VPMAXSD       X0, X11, X11
	VPSHUFD       $0x4e, X11, X0
	VPMAXSD       X0, X11, X11
	VPSHUFD       $0xb1, X11, X0
	VPMAXSD       X0, X11, X11
	VMOVD         X11, AX
	MOVL          AX, hi+36(FP)

	VZEROUPPER
	RET

// func boxRowAVX512(out *uint64, pix *uint8, n int, b *ExtremaBox)
//
// Z25..Z27 hold the box's Lo and Z28..Z30 its Span for (max, min,
// max − min); Z22 masks a dword to its low byte. CX counts the pixels
// left, R9 the blocks left in the word BX is gathering. A block of
// fewer than sixteen pixels is the row's last: K1 loads its bytes, K2
// admits its lanes.
TEXT ·boxRowAVX512(SB), NOSPLIT, $0-32
	MOVQ out+0(FP), DI
	MOVQ pix+8(FP), SI
	MOVQ n+16(FP), CX
	MOVQ b+24(FP), R8
	LEAQ ·scanConsts(SB), R10

	VMOVDQU32       SPREAD(R10), Z20
	VBROADCASTI32X4 RGB(R10), Z21
	VPBROADCASTD    0(R8), Z25
	VPBROADCASTD    4(R8), Z26
	VPBROADCASTD    8(R8), Z27
	VPBROADCASTD    12(R8), Z28
	VPBROADCASTD    16(R8), Z29
	VPBROADCASTD    20(R8), Z30
	MOVL            $0xff, AX
	VPBROADCASTD    AX, Z22

	MOVQ  $0xffffffffffff, AX
	KMOVQ AX, K1
	MOVL  $0xffff, AX
	KMOVW AX, K2
	XORQ  BX, BX
	MOVQ  $4, R9

boxBlock:
	CMPQ  CX, $16
	JGE   boxLoad
	MOVQ  CX, R11
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K2
	LEAQ  (R11)(R11*2), CX
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVQ AX, K1
	MOVQ  R11, CX

boxLoad:
	VMOVDQU8.Z (SI), K1, Z0
	VPERMD     Z0, Z20, Z0
	VPSHUFB    Z21, Z0, Z0 // (r, g, b, 0) a lane
	VPSRLD     $8, Z0, Z1
	VPSRLD     $16, Z0, Z2
	VPMAXUB    Z1, Z0, Z3
	VPMAXUB    Z2, Z3, Z3
	VPANDD     Z22, Z3, Z3 // max
	VPMINUB    Z1, Z0, Z4
	VPMINUB    Z2, Z4, Z4  // min: bytes 1..3 are min(·, 0) = 0
	VPSUBD     Z4, Z3, Z5  // max − min
	VPSUBD     Z25, Z3, Z3
	VPCMPUD    $2, Z28, Z3, K2, K3
	VPSUBD     Z26, Z4, Z4
	VPCMPUD    $2, Z29, Z4, K3, K3
	VPSUBD     Z27, Z5, Z5
	VPCMPUD    $2, Z30, Z5, K3, K3
	KMOVW      K3, AX
	SHRQ       $16, BX
	SHLQ       $48, AX
	ORQ        AX, BX
	ADDQ       $48, SI
	DECQ       R9
	JNZ        boxMore
	MOVQ       BX, (DI)
	ADDQ       $8, DI
	MOVQ       $4, R9

boxMore:
	SUBQ $16, CX
	JG   boxBlock

	CMPQ R9, $4
	JEQ  boxDone

boxFlush:
	SHRQ $16, BX
	DECQ R9
	JNZ  boxFlush
	MOVQ BX, (DI)

boxDone:
	VZEROUPPER
	RET

// MAP64 replaces the bytes of (DI) under K1 with their table entries
// (Z0..Z3 = the table's four quarters), using Z4..Z6 and K2.
#define MAP64 \
	VMOVDQU8.Z (DI), K1, Z4 \
	VPMOVB2M   Z4, K2       \
	VMOVDQA64  Z4, Z5       \
	VPERMI2B   Z1, Z0, Z5   \
	VPERMI2B   Z3, Z2, Z4   \
	VPBLENDMB  Z4, Z5, K2, Z6 \
	VMOVDQU8   Z6, K1, (DI)

// func mapBytesAVX512(pix *uint8, n int, lut *[256]uint8)
TEXT ·mapBytesAVX512(SB), NOSPLIT, $0-24
	MOVQ     pix+0(FP), DI
	MOVQ     n+8(FP), CX
	MOVQ     lut+16(FP), SI
	VMOVDQU8 0(SI), Z0
	VMOVDQU8 64(SI), Z1
	VMOVDQU8 128(SI), Z2
	VMOVDQU8 192(SI), Z3
	MOVQ     $-1, AX
	KMOVQ    AX, K1
	CMPQ     CX, $64
	JB       mapTail

mapStep:
	MAP64
	ADDQ $64, DI
	SUBQ $64, CX
	CMPQ CX, $64
	JAE  mapStep

mapTail:
	TESTQ CX, CX
	JZ    mapDone
	NEGQ  CX
	ADDQ  $64, CX
	SHRQ  CX, AX  // the low n%64 bits
	KMOVQ AX, K1
	MAP64

mapDone:
	VZEROUPPER
	RET
