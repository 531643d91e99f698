//go:build !purego

#include "textflag.h"

// func blockDistance8AVX2(a []float64, b [8][]float64) (r [8]float64)
//
// blockDistance8 (blocked.go) with two pairs' [even, odd] accumulators in
// the four lanes of one register: Y0..Y3 are [s_0, s_1, s_0', s_1'] of pairs
// (0, 1), (2, 3), (4, 5), (6, 7). Per two coordinates, [a_i, a_i+1] is
// broadcast to both halves, each register's two b blocks are loaded into
// its two halves, and one VSUBPD, VMULPD, VADDPD is per lane the subtract,
// multiply and add the Go loop does on that coordinate, in its order
// (multiply and add stay two roundings: no FMA). The loads are unaligned, so
// any sub-slice will do. The caller has checked len(b[k]) >= len(a).
TEXT ·blockDistance8AVX2(SB), NOSPLIT, $0-280
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_0_base+24(FP), R8
	MOVQ   b_1_base+48(FP), R9
	MOVQ   b_2_base+72(FP), R10
	MOVQ   b_3_base+96(FP), R11
	MOVQ   b_4_base+120(FP), R12
	MOVQ   b_5_base+144(FP), R13
	MOVQ   b_6_base+168(FP), BX
	MOVQ   b_7_base+192(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   AX, AX    // i
	MOVQ   CX, DX
	ANDQ   $-2, DX   // the even part of n
	JMP    pairs

loop:
	VBROADCASTF128 (SI)(AX*8), Y4 // [a_i, a_i+1, a_i, a_i+1]
	VMOVUPD        (R8)(AX*8), X5
	VINSERTF128    $1, (R9)(AX*8), Y5, Y5 // [b0_i, b0_i+1, b1_i, b1_i+1]
	VMOVUPD        (R10)(AX*8), X6
	VINSERTF128    $1, (R11)(AX*8), Y6, Y6
	VMOVUPD        (R12)(AX*8), X7
	VINSERTF128    $1, (R13)(AX*8), Y7, Y7
	VMOVUPD        (BX)(AX*8), X8
	VINSERTF128    $1, (DI)(AX*8), Y8, Y8
	VSUBPD         Y5, Y4, Y5 // [d, e, d', e'] = a − b
	VSUBPD         Y6, Y4, Y6
	VSUBPD         Y7, Y4, Y7
	VSUBPD         Y8, Y4, Y8
	VMULPD         Y5, Y5, Y5 // [d·d, e·e, d'·d', e'·e']
	VMULPD         Y6, Y6, Y6
	VMULPD         Y7, Y7, Y7
	VMULPD         Y8, Y8, Y8
	VADDPD         Y5, Y0, Y0 // s + d·d, lane by lane
	VADDPD         Y6, Y1, Y1
	VADDPD         Y7, Y2, Y2
	VADDPD         Y8, Y3, Y3
	ADDQ           $2, AX

pairs:
	CMPQ AX, DX
	JLT  loop

	// An odd last coordinate goes to the even accumulators alone: VMOVSD
	// zeroes the lanes above the one it loads, so the odd lanes add
	// (0 − 0)² = +0, which leaves s_1 as it was (a sum of squares from +0 is
	// never −0).
	CMPQ        AX, CX
	JGE         sum
	VMOVSD      (SI)(AX*8), X4
	VINSERTF128 $1, X4, Y4, Y4 // [a_i, 0, a_i, 0]
	VMOVSD      (R8)(AX*8), X5
	VMOVSD      (R9)(AX*8), X9
	VINSERTF128 $1, X9, Y5, Y5 // [b0_i, 0, b1_i, 0]
	VMOVSD      (R10)(AX*8), X6
	VMOVSD      (R11)(AX*8), X9
	VINSERTF128 $1, X9, Y6, Y6
	VMOVSD      (R12)(AX*8), X7
	VMOVSD      (R13)(AX*8), X9
	VINSERTF128 $1, X9, Y7, Y7
	VMOVSD      (BX)(AX*8), X8
	VMOVSD      (DI)(AX*8), X9
	VINSERTF128 $1, X9, Y8, Y8
	VSUBPD      Y5, Y4, Y5
	VSUBPD      Y6, Y4, Y6
	VSUBPD      Y7, Y4, Y7
	VSUBPD      Y8, Y4, Y8
	VMULPD      Y5, Y5, Y5
	VMULPD      Y6, Y6, Y6
	VMULPD      Y7, Y7, Y7
	VMULPD      Y8, Y8, Y8
	VADDPD      Y5, Y0, Y0
	VADDPD      Y6, Y1, Y1
	VADDPD      Y7, Y2, Y2
	VADDPD      Y8, Y3, Y3

sum:
	// r = s_0 + s_1: VHADDPD leaves [r0, r2, r1, r3], VPERMPD puts it in order.
	VHADDPD    Y1, Y0, Y4
	VHADDPD    Y3, Y2, Y5
	VPERMPD    $0xd8, Y4, Y4
	VPERMPD    $0xd8, Y5, Y5
	LEAQ       r+216(FP), AX
	VMOVUPD    Y4, (AX)
	VMOVUPD    Y5, 32(AX)
	VZEROUPPER
	RET
