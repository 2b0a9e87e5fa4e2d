#include "textflag.h"

// func mapRowAVX512(to *float64, from *uint8, n8 int, tab *[256]float64)
TEXT ·mapRowAVX512(SB), NOSPLIT, $0-32
	MOVQ to+0(FP), DI
	MOVQ from+8(FP), SI
	MOVQ n8+16(FP), CX
	MOVQ tab+24(FP), R8

mapTurn:
	VPMOVZXBD  (SI), Y1
	KXNORB     K1, K1, K1
	VGATHERDPD (R8)(Y1*8), K1, Z2
	VMOVUPD    Z2, (DI)
	ADDQ       $8, SI
	ADDQ       $64, DI
	DECQ       CX
	JNZ        mapTurn

	VZEROUPPER
	RET

// func lerpRowAVX512(out, src *float64, at0, at1 *int32, wg, wf *float64, n8 int)
TEXT ·lerpRowAVX512(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ at0+16(FP), R8
	MOVQ at1+24(FP), R9
	MOVQ wg+32(FP), R10
	MOVQ wf+40(FP), R11
	MOVQ n8+48(FP), CX

lerpTurn:
	VMOVDQU    (R8), Y1
	VMOVDQU    (R9), Y2
	KXNORB     K1, K1, K1
	KXNORB     K2, K2, K2
	VGATHERDPD (SI)(Y1*8), K1, Z3
	VGATHERDPD (SI)(Y2*8), K2, Z4
	VMULPD     (R10), Z3, Z3
	VMULPD     (R11), Z4, Z4
	VADDPD     Z4, Z3, Z3
	VMOVUPD    Z3, (DI)
	ADDQ       $32, R8
	ADDQ       $32, R9
	ADDQ       $64, R10
	ADDQ       $64, R11
	ADDQ       $64, DI
	DECQ       CX
	JNZ        lerpTurn

	VZEROUPPER
	RET

// func blendRowAVX512(out *uint8, top, bot *float64, n8 int, gy, fy float64)
TEXT ·blendRowAVX512(SB), NOSPLIT, $0-48
	MOVQ         out+0(FP), DI
	MOVQ         top+8(FP), SI
	MOVQ         bot+16(FP), DX
	MOVQ         n8+24(FP), CX
	VBROADCASTSD gy+32(FP), Z0
	VBROADCASTSD fy+40(FP), Z1
	LEAQ         ·resizeConsts(SB), R8
	VBROADCASTSD 0(R8), Z2 // 0.5
	VBROADCASTSD 8(R8), Z3 // 255
	VPXORQ       Z4, Z4, Z4

blendTurn:
	VMULPD     (SI), Z0, Z5
	VMULPD     (DX), Z1, Z6
	VADDPD     Z6, Z5, Z5
	VMAXPD     Z4, Z5, Z5
	VMINPD     Z3, Z5, Z5
	VADDPD     Z2, Z5, Z5
	VCVTTPD2DQ Z5, Y5
	VPMOVDB    Y5, (DI)
	ADDQ       $64, SI
	ADDQ       $64, DX
	ADDQ       $8, DI
	DECQ       CX
	JNZ        blendTurn

	VZEROUPPER
	RET
