#include "textflag.h"

// func blockDistance4SSE2(a, b0, b1, b2, b3 []float64) (r0, r1, r2, r3 float64)
//
// blockDistance4 (blocked.go) with each pair's [even, odd] accumulators in
// the two lanes of one register: X1..X4 are [s_0, s_1] of pairs 0..3, and
// per two coordinates each takes one SUBPD, MULPD, ADDPD — per lane the
// subtract, multiply and add the Go loop does on that coordinate, in its
// order (multiply and add stay two roundings, as the compiler leaves them
// below GOAMD64=v3). SSE2 is baseline amd64; the loads are unaligned
// (MOVUPD), so any sub-slice will do. The caller has checked
// len(b*) >= len(a).
TEXT ·blockDistance4SSE2(SB), NOSPLIT, $0-152
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b0_base+24(FP), R8
	MOVQ b1_base+48(FP), R9
	MOVQ b2_base+72(FP), R10
	MOVQ b3_base+96(FP), R11
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	XORPD X4, X4
	XORQ AX, AX // i
	MOVQ CX, DX
	ANDQ $-2, DX // the even part of n
	JMP  pairs

loop:
	MOVUPD (SI)(AX*8), X0 // [a[i], a[i+1]]
	MOVUPD (R8)(AX*8), X5
	MOVUPD (R9)(AX*8), X6
	MOVUPD (R10)(AX*8), X7
	MOVUPD (R11)(AX*8), X8
	MOVAPD X0, X9
	MOVAPD X0, X10
	MOVAPD X0, X11
	SUBPD  X5, X9  // [d, e] = a − b0
	SUBPD  X6, X10
	SUBPD  X7, X11
	SUBPD  X8, X0
	MULPD  X9, X9 // [d·d, e·e]
	MULPD  X10, X10
	MULPD  X11, X11
	MULPD  X0, X0
	ADDPD  X9, X1 // [s_0 + d·d, s_1 + e·e]
	ADDPD  X10, X2
	ADDPD  X11, X3
	ADDPD  X0, X4
	ADDQ   $2, AX

pairs:
	CMPQ AX, DX
	JLT  loop

	// An odd last coordinate goes to the even accumulator alone: the scalar
	// forms work on lane 0 and leave lane 1 of their destination as it was.
	CMPQ AX, CX
	JGE  sum
	MOVSD (SI)(AX*8), X0
	MOVSD (R8)(AX*8), X5
	MOVSD (R9)(AX*8), X6
	MOVSD (R10)(AX*8), X7
	MOVSD (R11)(AX*8), X8
	MOVAPD X0, X9
	MOVAPD X0, X10
	MOVAPD X0, X11
	SUBSD  X5, X9
	SUBSD  X6, X10
	SUBSD  X7, X11
	SUBSD  X8, X0
	MULSD  X9, X9
	MULSD  X10, X10
	MULSD  X11, X11
	MULSD  X0, X0
	ADDSD  X9, X1
	ADDSD  X10, X2
	ADDSD  X11, X3
	ADDSD  X0, X4

sum:
	// r = s_0 + s_1.
	MOVAPD   X1, X5
	MOVAPD   X2, X6
	MOVAPD   X3, X7
	MOVAPD   X4, X8
	UNPCKHPD X5, X5 // [s_1, s_1]
	UNPCKHPD X6, X6
	UNPCKHPD X7, X7
	UNPCKHPD X8, X8
	ADDSD    X5, X1
	ADDSD    X6, X2
	ADDSD    X7, X3
	ADDSD    X8, X4
	MOVSD    X1, r0+120(FP)
	MOVSD    X2, r1+128(FP)
	MOVSD    X3, r2+136(FP)
	MOVSD    X4, r3+144(FP)
	RET
