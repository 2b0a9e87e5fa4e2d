#include "textflag.h"

// Offsets into renderConsts (render_amd64.go).
#define LANES 0
#define STEP 64
#define MUL1 72
#define MUL2 80
#define ODDS 88
#define UNIT 96
#define HALF 104
#define AMP 112
#define ONE 120
#define TOP 128
#define SPREAD 136
#define STEPS 328
#define CENTRE 336
#define TRANSPOSE 344

// MIX replaces the eight states in s with their SplitMix64 outputs
// (rng.Mix), using t; m1 and m2 hold the multipliers.
#define MIX(s, t, m1, m2) \
	VPSRLQ  $30, s, t \
	VPXORQ  t, s, s   \
	VPMULLQ m1, s, s  \
	VPSRLQ  $27, s, t \
	VPXORQ  t, s, s   \
	VPMULLQ m2, s, s  \
	VPSRLQ  $31, s, t \
	VPXORQ  t, s, s

// func noiseAVX512(pix *uint8, n int, base uint64)
//
// DI is the next byte to end and SI the bytes left. A block: eight turns
// of eight draws, each turn's 8-bit compare mask entering BX from the
// top (so after eight turns turn 0's bits are bits 0..7) and its eight
// Intn(11) bytes the top bytes of Z9's lanes (VPSHRDQ, so after eight
// turns byte 8j+t of Z9 is turn t's lane j: draw 8t+j, which VPERMB
// puts at byte 8t+j); then hitRuns with R9 the carry and R10 =
// 0xAAAA…; then the moves of the min(popcount(^h), SI) bytes the block
// ends.
TEXT ·noiseAVX512(SB), NOSPLIT, $0-24
	MOVQ pix+0(FP), DI
	MOVQ n+8(FP), SI
	LEAQ ·renderConsts(SB), R8
	VPBROADCASTQ base+16(FP), Z0
	VPADDQ       LANES(R8), Z0, Z0
	VPBROADCASTQ STEP(R8), Z1
	VPBROADCASTQ MUL1(R8), Z2
	VPBROADCASTQ MUL2(R8), Z3
	VPBROADCASTQ ODDS(R8), Z4
	VPBROADCASTQ STEPS(R8), Z7
	VPBROADCASTB CENTRE(R8), Z8
	VMOVDQU8     TRANSPOSE(R8), Z14
	XORQ         R9, R9
	MOVQ         $0xAAAAAAAAAAAAAAAA, R10

noiseBlock:
	XORQ BX, BX
	MOVQ $8, CX

noiseTurn:
	VMOVDQA64 Z0, Z5
	MIX(Z5, Z6, Z2, Z3)
	VPCMPUQ   $1, Z4, Z5, K1 // z < odds
	KMOVB     K1, DX
	SHRQ      $8, BX
	SHLQ      $56, DX
	ORQ       DX, BX
	VPSRLQ    $32, Z5, Z5
	VPMULUDQ  Z7, Z5, Z5
	VPSRLQ    $32, Z5, Z5    // Intn(11)
	VPSHRDQ   $8, Z5, Z9, Z9
	VPADDQ    Z1, Z0, Z0
	DECQ      CX
	JNZ       noiseTurn
	VPERMB    Z9, Z14, Z9    // the Intn(11) bytes in draw order

	// hitRuns(c = BX, carry = R9): AX = h, DX = p, R9 = the next carry.
	MOVQ R9, DX
	NOTQ DX
	ANDQ BX, DX                // starts = c &^ carry
	LEAQ (DX)(DX*1), AX
	ORQ  R10, AX
	SUBQ DX, AX
	XORQ R10, AX               // code
	MOVQ BX, DX
	ORQ  R9, DX
	XORQ AX, DX                // p = code ^ (c | carry)
	ANDQ BX, AX                // h = code & c
	MOVQ AX, R9
	SHRQ $63, R9
	NOTQ AX                    // the draws that end a byte
	KMOVQ DX, K2
	KMOVQ AX, K3
	POPCNTQ AX, R12
	CMPQ R12, SI
	CMOVQGT SI, R12            // the bytes this block ends
	MOVQ $64, CX
	SUBQ R12, CX
	MOVQ $-1, AX
	SHRQ CX, AX
	KMOVQ AX, K4               // their load and store mask

	VPBLENDMB     Z9, Z8, K2, Z10 // Intn(11) on p, 5 elsewhere
	VPCOMPRESSB.Z Z10, K3, Z10    // the moves in byte order
	VPSUBUSB      Z8, Z10, Z11    // max(u - 5, 0)
	VPSUBUSB      Z10, Z8, Z12    // max(5 - u, 0)
	VMOVDQU8.Z    (DI), K4, Z13
	VPADDUSB      Z11, Z13, Z13
	VPSUBUSB      Z12, Z13, Z13
	VMOVDQU8      Z13, K4, (DI)
	ADDQ          R12, DI
	SUBQ          R12, SI
	JNZ           noiseBlock

	VZEROUPPER
	RET

// SHADE writes the eight channel bytes of f spread by idx and scaled by
// colour pattern c to off(DI): clamped to [0, 255] (Z10 = 0, Z8 = 255)
// and truncated, as shade's cl.
#define SHADE(idx, c, off) \
	VPERMPD    Z17, idx, Z18 \
	VMULPD     c, Z18, Z18   \
	VMAXPD     Z10, Z18, Z18 \
	VMINPD     Z8, Z18, Z18  \
	VCVTTPD2DQ Z18, Y18      \
	VPMOVDB    Y18, off(DI)

// func groundRowAVX512(dst *uint8, n8 int, base uint64, haze float64, tab *groundTab)
TEXT ·groundRowAVX512(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ n8+8(FP), CX
	MOVQ tab+32(FP), SI
	LEAQ ·renderConsts(SB), R8
	VPBROADCASTQ base+16(FP), Z0
	VPADDQ       LANES(R8), Z0, Z0
	VPBROADCASTQ STEP(R8), Z1
	VPBROADCASTQ MUL1(R8), Z2
	VPBROADCASTQ MUL2(R8), Z3
	VBROADCASTSD UNIT(R8), Z4
	VBROADCASTSD HALF(R8), Z5
	VBROADCASTSD AMP(R8), Z6
	VBROADCASTSD ONE(R8), Z7
	VBROADCASTSD TOP(R8), Z8
	VBROADCASTSD haze+24(FP), Z9
	VPXORQ       Z10, Z10, Z10
	VMOVDQU64    SPREAD(R8), Z11
	VMOVDQU64    SPREAD+64(R8), Z12
	VMOVDQU64    SPREAD+128(R8), Z13
	VMOVUPD      0(SI), Z14
	VMOVUPD      64(SI), Z15
	VMOVUPD      128(SI), Z16

groundRun:
	VMOVDQA64  Z0, Z17
	MIX(Z17, Z18, Z2, Z3)
	VPSRLQ     $11, Z17, Z17
	VCVTUQQ2PD Z17, Z17
	VMULPD     Z4, Z17, Z17 // u
	VSUBPD     Z5, Z17, Z17 // u - 0.5
	VMULPD     Z6, Z17, Z17 // (u - 0.5)·speckle
	VADDPD     Z7, Z17, Z17 // n
	VMULPD     Z17, Z9, Z17 // f = haze·n
	SHADE(Z11, Z14, 0)
	SHADE(Z12, Z15, 8)
	SHADE(Z13, Z16, 16)
	VPADDQ     Z1, Z0, Z0
	ADDQ       $24, DI
	DECQ       CX
	JNZ        groundRun
	VZEROUPPER
	RET
