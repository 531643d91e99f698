//go:build !purego

#include "textflag.h"

// MADD(acc, t, c, v) is one step of the Go loops' sums, four columns a
// register: t = c·v, then acc = acc + t. Multiply and add stay two
// roundings, as in Go: no FMA.
#define MADD(acc, t, c, v) \
	VMULPD v, c, t; \
	VADDPD t, acc, acc

// PREFETCH(line, end) asks for the cache line at line, unless line has
// reached end, and moves line on one line: one line a step of four columns,
// so the two rows the next block touches arrive while this block computes.
// A prefetch reads nothing into a register, cannot fault and changes no
// bits.
#define PREFETCH(line, end) \
	CMPQ       line, end; \
	JAE        2(PC); \
	PREFETCHT0 (line); \
	ADDQ       $64, line

// func matMul4x2AVX2(o0, o1, o2, o3, bp, bq, next []float64, p0, p1, p2, p3, q0, q1, q2, q3 float64)
//
// MatMul's dense block (matrix.go) four columns a step: Y0..Y3 hold p0..p3
// and Y4..Y7 q0..q3 in every lane, Y8 and Y9 the four columns of bp and bq,
// and each output row r is loaded, given o + p_r·bp and then + q_r·bq, and
// stored: per lane, the Go loop's operations on that element in its order.
// The loads and stores are unaligned, so any sub-slice will do. The caller
// has checked that every row holds len(o0) elements; a last one to three
// columns are left to it. next is what the following block reads (the rows
// of b after bq): it is prefetched, never read.
TEXT ·matMul4x2AVX2(SB), NOSPLIT, $0-232
	MOVQ         o0_base+0(FP), R8
	MOVQ         o0_len+8(FP), CX
	MOVQ         o1_base+24(FP), R9
	MOVQ         o2_base+48(FP), R10
	MOVQ         o3_base+72(FP), R11
	MOVQ         bp_base+96(FP), SI
	MOVQ         bq_base+120(FP), DI
	MOVQ         next_base+144(FP), DX
	MOVQ         next_len+152(FP), BX
	LEAQ         (DX)(BX*8), BX // the end of next
	VBROADCASTSD p0+168(FP), Y0
	VBROADCASTSD p1+176(FP), Y1
	VBROADCASTSD p2+184(FP), Y2
	VBROADCASTSD p3+192(FP), Y3
	VBROADCASTSD q0+200(FP), Y4
	VBROADCASTSD q1+208(FP), Y5
	VBROADCASTSD q2+216(FP), Y6
	VBROADCASTSD q3+224(FP), Y7
	ANDQ         $-4, CX
	XORQ         AX, AX         // j
	JMP          mmtest

mmloop:
	VMOVUPD (SI)(AX*8), Y8
	VMOVUPD (DI)(AX*8), Y9
	VMOVUPD (R8)(AX*8), Y10
	VMOVUPD (R9)(AX*8), Y11
	VMOVUPD (R10)(AX*8), Y12
	VMOVUPD (R11)(AX*8), Y13
	MADD(Y10, Y14, Y0, Y8)
	MADD(Y11, Y15, Y1, Y8)
	MADD(Y10, Y14, Y4, Y9)
	MADD(Y11, Y15, Y5, Y9)
	VMOVUPD Y10, (R8)(AX*8)
	VMOVUPD Y11, (R9)(AX*8)
	MADD(Y12, Y14, Y2, Y8)
	MADD(Y13, Y15, Y3, Y8)
	MADD(Y12, Y14, Y6, Y9)
	MADD(Y13, Y15, Y7, Y9)
	VMOVUPD Y12, (R10)(AX*8)
	VMOVUPD Y13, (R11)(AX*8)
	PREFETCH(DX, BX)
	ADDQ    $4, AX

mmtest:
	CMPQ AX, CX
	JLT  mmloop
	VZEROUPPER
	RET

// func transA4x2AVX2(op, oq, b0, b1, b2, b3, next []float64, p0, p1, p2, p3, q0, q1, q2, q3 float64, first bool)
//
// MatMulTransA's dense block (matrix.go) four columns a step: Y0..Y3 hold
// p0..p3 and Y4..Y7 q0..q3 in every lane, Y8..Y11 the four columns of
// b0..b3, and the two sums run left to right from the output's old value,
// or from a register zeroed by VXORPD when first is set — the Go loop's
// leading 0, which turns an all −0 sum into +0. The caller has checked
// that every row holds len(op) elements; a last one to three columns are
// left to it. next is what the following block writes (the output rows
// after oq): it is prefetched, never read or written here.
TEXT ·transA4x2AVX2(SB), NOSPLIT, $0-233
	MOVQ         op_base+0(FP), R8
	MOVQ         op_len+8(FP), CX
	MOVQ         oq_base+24(FP), R9
	MOVQ         b0_base+48(FP), R10
	MOVQ         b1_base+72(FP), R11
	MOVQ         b2_base+96(FP), R12
	MOVQ         b3_base+120(FP), R13
	MOVQ         next_base+144(FP), DX
	MOVQ         next_len+152(FP), BX
	LEAQ         (DX)(BX*8), BX // the end of next
	VBROADCASTSD p0+168(FP), Y0
	VBROADCASTSD p1+176(FP), Y1
	VBROADCASTSD p2+184(FP), Y2
	VBROADCASTSD p3+192(FP), Y3
	VBROADCASTSD q0+200(FP), Y4
	VBROADCASTSD q1+208(FP), Y5
	VBROADCASTSD q2+216(FP), Y6
	VBROADCASTSD q3+224(FP), Y7
	ANDQ         $-4, CX
	XORQ         AX, AX         // j
	CMPB         first+232(FP), $0
	JEQ          acctest
	JMP          firsttest

firstloop:
	VMOVUPD (R10)(AX*8), Y8
	VMOVUPD (R11)(AX*8), Y9
	VMOVUPD (R12)(AX*8), Y10
	VMOVUPD (R13)(AX*8), Y11
	VXORPD  Y12, Y12, Y12
	VXORPD  Y13, Y13, Y13
	MADD(Y12, Y14, Y0, Y8)
	MADD(Y13, Y15, Y4, Y8)
	MADD(Y12, Y14, Y1, Y9)
	MADD(Y13, Y15, Y5, Y9)
	MADD(Y12, Y14, Y2, Y10)
	MADD(Y13, Y15, Y6, Y10)
	MADD(Y12, Y14, Y3, Y11)
	MADD(Y13, Y15, Y7, Y11)
	VMOVUPD Y12, (R8)(AX*8)
	VMOVUPD Y13, (R9)(AX*8)
	PREFETCH(DX, BX)
	ADDQ    $4, AX

firsttest:
	CMPQ AX, CX
	JLT  firstloop
	VZEROUPPER
	RET

accloop:
	VMOVUPD (R10)(AX*8), Y8
	VMOVUPD (R11)(AX*8), Y9
	VMOVUPD (R12)(AX*8), Y10
	VMOVUPD (R13)(AX*8), Y11
	VMOVUPD (R8)(AX*8), Y12
	VMOVUPD (R9)(AX*8), Y13
	MADD(Y12, Y14, Y0, Y8)
	MADD(Y13, Y15, Y4, Y8)
	MADD(Y12, Y14, Y1, Y9)
	MADD(Y13, Y15, Y5, Y9)
	MADD(Y12, Y14, Y2, Y10)
	MADD(Y13, Y15, Y6, Y10)
	MADD(Y12, Y14, Y3, Y11)
	MADD(Y13, Y15, Y7, Y11)
	VMOVUPD Y12, (R8)(AX*8)
	VMOVUPD Y13, (R9)(AX*8)
	PREFETCH(DX, BX)
	ADDQ    $4, AX

acctest:
	CMPQ AX, CX
	JLT  accloop
	VZEROUPPER
	RET
