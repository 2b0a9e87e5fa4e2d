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

// func noiseBlockAVX512(z *[64]uint64, base uint64) (hits uint64)
//
// Eight draws a turn: Z0 holds the states base + (j+1)·Gamma of the
// turn's lanes. Each turn's 8-bit compare mask enters hits from the top,
// so after eight turns turn 0's bits are bits 0..7.
TEXT ·noiseBlockAVX512(SB), NOSPLIT, $0-24
	MOVQ z+0(FP), DI
	LEAQ ·renderConsts(SB), R8
	VPBROADCASTQ base+8(FP), Z0
	VPADDQ       LANES(R8), Z0, Z0
	VPBROADCASTQ STEP(R8), Z1
	VPBROADCASTQ MUL1(R8), Z2
	VPBROADCASTQ MUL2(R8), Z3
	VPBROADCASTQ ODDS(R8), Z4
	XORQ         BX, BX
	MOVQ         $8, CX

noiseTurn:
	VMOVDQA64 Z0, Z5
	MIX(Z5, Z6, Z2, Z3)
	VMOVDQU64 Z5, (DI)
	VPCMPUQ   $1, Z4, Z5, K1 // z < odds
	KMOVB     K1, DX
	SHRQ      $8, BX
	SHLQ      $56, DX
	ORQ       DX, BX
	VPADDQ    Z1, Z0, Z0
	ADDQ      $64, DI
	DECQ      CX
	JNZ       noiseTurn

	MOVQ BX, hits+16(FP)
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
