//go:build !purego

#include "textflag.h"

// MADD(acc, t, c, v) is one step of the Go loops' sums, four columns a
// register: t = c·v, then acc = acc + t. Multiply and add stay two
// roundings, as in Go: no FMA.
#define MADD(acc, t, c, v) \
	VMULPD v, c, t; \
	VADDPD t, acc, acc

// Every hot loop starts on a 64-byte boundary (PCALIGN, padding the jump to
// its test never executes): where the linker happens to place the function
// otherwise moved the dense blocks' speed by up to 9 %.

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

// MASKED(acc, t, c, v, m) is MADD with the product ANDed with m first: the
// a ≠ 0 mask of the coefficient. A zero coefficient's lanes then add +0,
// which leaves every sum these kernels build as a skip would — the sums
// start at +0 and never become −0, and x + (+0) is x for any other x, ±Inf
// and NaN included — while 0·Inf (NaN) never reaches acc. Multiplying by the
// mask instead would not do: 0·Inf is NaN.
#define MASKED(acc, t, c, v, m) \
	VMULPD v, c, t; \
	VANDPD m, t, t; \
	VADDPD t, acc, acc

// MASKED1 is MASKED on the low lane alone: a row's last one to three
// columns.
#define MASKED1(acc, t, c, v, m) \
	VMULSD v, c, t; \
	VANDPD m, t, t; \
	VADDSD t, acc, acc

// MASKS spills the a ≠ 0 masks of the eight coefficients in Y0..Y7 to the
// frame, 0(SP) through 224(SP), with Y15 zeroed: the loops AND them in from
// memory, since every register is taken.
#define MASKS \
	VXORPD  Y15, Y15, Y15; \
	VCMPPD  $4, Y15, Y0, Y8; \
	VMOVUPD Y8, 0(SP); \
	VCMPPD  $4, Y15, Y1, Y8; \
	VMOVUPD Y8, 32(SP); \
	VCMPPD  $4, Y15, Y2, Y8; \
	VMOVUPD Y8, 64(SP); \
	VCMPPD  $4, Y15, Y3, Y8; \
	VMOVUPD Y8, 96(SP); \
	VCMPPD  $4, Y15, Y4, Y8; \
	VMOVUPD Y8, 128(SP); \
	VCMPPD  $4, Y15, Y5, Y8; \
	VMOVUPD Y8, 160(SP); \
	VCMPPD  $4, Y15, Y6, Y8; \
	VMOVUPD Y8, 192(SP); \
	VCMPPD  $4, Y15, Y7, Y8; \
	VMOVUPD Y8, 224(SP)

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

	PCALIGN $64
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

	PCALIGN $64
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

	PCALIGN $64
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

// func matMul4x2MaskedAVX2(o0, o1, o2, o3, bp, bq, next []float64, p0, p1, p2, p3, q0, q1, q2, q3 float64)
//
// matMul4x2AVX2 for a block holding a zero coefficient, over every column:
// each product is masked (MASKED) rather than skipped, which is the Go
// loop's row-at-a-time skip to the bit. The last one to three columns run
// on the low lane. The caller has checked that every row holds len(o0)
// elements.
TEXT ·matMul4x2MaskedAVX2(SB), NOSPLIT, $256-232
	MOVQ         o0_base+0(FP), R8
	MOVQ         o0_len+8(FP), R12
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
	MASKS
	MOVQ         R12, CX
	ANDQ         $-4, CX
	XORQ         AX, AX         // j
	JMP          mzmtest

	PCALIGN $64
mzmloop:
	VMOVUPD (SI)(AX*8), Y8
	VMOVUPD (DI)(AX*8), Y9
	VMOVUPD (R8)(AX*8), Y10
	VMOVUPD (R9)(AX*8), Y11
	VMOVUPD (R10)(AX*8), Y12
	VMOVUPD (R11)(AX*8), Y13
	MASKED(Y10, Y14, Y0, Y8, 0(SP))
	MASKED(Y11, Y15, Y1, Y8, 32(SP))
	MASKED(Y10, Y14, Y4, Y9, 128(SP))
	MASKED(Y11, Y15, Y5, Y9, 160(SP))
	VMOVUPD Y10, (R8)(AX*8)
	VMOVUPD Y11, (R9)(AX*8)
	MASKED(Y12, Y14, Y2, Y8, 64(SP))
	MASKED(Y13, Y15, Y3, Y8, 96(SP))
	MASKED(Y12, Y14, Y6, Y9, 192(SP))
	MASKED(Y13, Y15, Y7, Y9, 224(SP))
	VMOVUPD Y12, (R10)(AX*8)
	VMOVUPD Y13, (R11)(AX*8)
	PREFETCH(DX, BX)
	ADDQ    $4, AX

mzmtest:
	CMPQ AX, CX
	JLT  mzmloop
	JMP  mzttest

mztloop:
	VMOVSD (SI)(AX*8), X8
	VMOVSD (DI)(AX*8), X9
	VMOVSD (R8)(AX*8), X10
	VMOVSD (R9)(AX*8), X11
	VMOVSD (R10)(AX*8), X12
	VMOVSD (R11)(AX*8), X13
	MASKED1(X10, X14, X0, X8, 0(SP))
	MASKED1(X11, X15, X1, X8, 32(SP))
	MASKED1(X12, X14, X2, X8, 64(SP))
	MASKED1(X13, X15, X3, X8, 96(SP))
	MASKED1(X10, X14, X4, X9, 128(SP))
	MASKED1(X11, X15, X5, X9, 160(SP))
	MASKED1(X12, X14, X6, X9, 192(SP))
	MASKED1(X13, X15, X7, X9, 224(SP))
	VMOVSD  X10, (R8)(AX*8)
	VMOVSD  X11, (R9)(AX*8)
	VMOVSD  X12, (R10)(AX*8)
	VMOVSD  X13, (R11)(AX*8)
	INCQ    AX

mzttest:
	CMPQ AX, R12
	JLT  mztloop
	VZEROUPPER
	RET

// func transA4x2MaskedAVX2(op, oq, b0, b1, b2, b3, next []float64, p0, p1, p2, p3, q0, q1, q2, q3 float64, first bool)
//
// transA4x2AVX2 for a block holding a zero coefficient, over every column:
// each product is masked (MASKED) rather than skipped, which is the Go
// loop's row-at-a-time skip to the bit, the sum starting from +0 when first
// is set as the zeroed row does there. The last one to three columns run on
// the low lane. The caller has checked that every row holds len(op)
// elements.
TEXT ·transA4x2MaskedAVX2(SB), NOSPLIT, $256-233
	MOVQ         op_base+0(FP), R8
	MOVQ         op_len+8(FP), SI
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
	MASKS
	MOVBQZX      first+232(FP), DI
	MOVQ         SI, CX
	ANDQ         $-4, CX
	XORQ         AX, AX         // j
	JMP          tzmtest

	PCALIGN $64
tzmloop:
	VMOVUPD (R10)(AX*8), Y8
	VMOVUPD (R11)(AX*8), Y9
	VMOVUPD (R12)(AX*8), Y10
	VMOVUPD (R13)(AX*8), Y11
	VXORPD  Y12, Y12, Y12
	VXORPD  Y13, Y13, Y13
	TESTQ   DI, DI
	JNE     tzmsum
	VMOVUPD (R8)(AX*8), Y12
	VMOVUPD (R9)(AX*8), Y13

tzmsum:
	MASKED(Y12, Y14, Y0, Y8, 0(SP))
	MASKED(Y13, Y15, Y4, Y8, 128(SP))
	MASKED(Y12, Y14, Y1, Y9, 32(SP))
	MASKED(Y13, Y15, Y5, Y9, 160(SP))
	MASKED(Y12, Y14, Y2, Y10, 64(SP))
	MASKED(Y13, Y15, Y6, Y10, 192(SP))
	MASKED(Y12, Y14, Y3, Y11, 96(SP))
	MASKED(Y13, Y15, Y7, Y11, 224(SP))
	VMOVUPD Y12, (R8)(AX*8)
	VMOVUPD Y13, (R9)(AX*8)
	PREFETCH(DX, BX)
	ADDQ    $4, AX

tzmtest:
	CMPQ AX, CX
	JLT  tzmloop
	JMP  tzttest

tztloop:
	VMOVSD  (R10)(AX*8), X8
	VMOVSD  (R11)(AX*8), X9
	VMOVSD  (R12)(AX*8), X10
	VMOVSD  (R13)(AX*8), X11
	VXORPD  X12, X12, X12
	VXORPD  X13, X13, X13
	TESTQ   DI, DI
	JNE     tztsum
	VMOVSD  (R8)(AX*8), X12
	VMOVSD  (R9)(AX*8), X13

tztsum:
	MASKED1(X12, X14, X0, X8, 0(SP))
	MASKED1(X13, X15, X4, X8, 128(SP))
	MASKED1(X12, X14, X1, X9, 32(SP))
	MASKED1(X13, X15, X5, X9, 160(SP))
	MASKED1(X12, X14, X2, X10, 64(SP))
	MASKED1(X13, X15, X6, X10, 192(SP))
	MASKED1(X12, X14, X3, X11, 96(SP))
	MASKED1(X13, X15, X7, X11, 224(SP))
	VMOVSD  X12, (R8)(AX*8)
	VMOVSD  X13, (R9)(AX*8)
	INCQ    AX

tzttest:
	CMPQ AX, SI
	JLT  tztloop
	VZEROUPPER
	RET

// The narrow kernels below hold four consecutive output rows of one column
// in a register: Y0, Y1, Y2 are columns 0, 1, 2 of the rows in flight, each
// lane a sum from +0 over ascending k with masked products (MASKED), the
// Go loops' bits. Y15 is zero throughout.

// NSTEP1..NSTEP3 add step k to the sums of one to three columns: a holds the
// four rows' coefficients of step k, the columns' b values sit at b0..b2
// off DI. Y9 takes the a ≠ 0 mask, Y10..Y12 the products.
#define NSTEP1(a, b0) \
	VCMPPD       $4, Y15, a, Y9; \
	VBROADCASTSD b0(DI), Y10; \
	MASKED(Y0, Y10, Y10, a, Y9)

#define NSTEP2(a, b0, b1) \
	NSTEP1(a, b0); \
	VBROADCASTSD b1(DI), Y11; \
	MASKED(Y1, Y11, Y11, a, Y9)

#define NSTEP3(a, b0, b1, b2) \
	NSTEP2(a, b0, b1); \
	VBROADCASTSD b2(DI), Y12; \
	MASKED(Y2, Y12, Y12, a, Y9)

// NSTORE1..NSTORE3 write the four rows of one to three columns to the
// row-major output at R8 and zero the sums for the next four rows: the
// columns are interleaved back, four rows × cols contiguous values.
#define NSTORE1 \
	VMOVUPD Y0, (R8); \
	VXORPD  Y0, Y0, Y0

#define NSTORE2 \
	VUNPCKLPD  Y1, Y0, Y3; \
	VUNPCKHPD  Y1, Y0, Y4; \
	VPERM2F128 $0x20, Y4, Y3, Y5; \
	VPERM2F128 $0x31, Y4, Y3, Y6; \
	VMOVUPD    Y5, (R8); \
	VMOVUPD    Y6, 32(R8); \
	VXORPD     Y0, Y0, Y0; \
	VXORPD     Y1, Y1, Y1

#define NSTORE3 \
	VUNPCKLPD   Y1, Y0, Y3; \
	VUNPCKHPD   Y1, Y0, Y4; \
	VUNPCKLPD   Y4, Y2, Y5; \
	VUNPCKHPD   Y2, Y4, Y6; \
	VINSERTF128 $1, X5, Y3, Y7; \
	VBLENDPD    $0xC, Y3, Y6, Y8; \
	VPERM2F128  $0x31, Y6, Y5, Y9; \
	VMOVUPD     Y7, (R8); \
	VMOVUPD     Y8, 32(R8); \
	VMOVUPD     Y9, 64(R8); \
	VXORPD      Y0, Y0, Y0; \
	VXORPD      Y1, Y1, Y1; \
	VXORPD      Y2, Y2, Y2

// ACOLS4 gathers steps k..k+3 (k in AX) of the four rows of a at SI, R10,
// R11, R12 into Y5..Y8, one step a register, a row a lane: two rows' pairs
// of steps per register, then unpacked.
#define ACOLS4 \
	VMOVUPD     (SI)(AX*8), X3; \
	VINSERTF128 $1, (R11)(AX*8), Y3, Y3; \
	VMOVUPD     (R10)(AX*8), X4; \
	VINSERTF128 $1, (R12)(AX*8), Y4, Y4; \
	VUNPCKLPD   Y4, Y3, Y5; \
	VUNPCKHPD   Y4, Y3, Y6; \
	VMOVUPD     16(SI)(AX*8), X3; \
	VINSERTF128 $1, 16(R11)(AX*8), Y3, Y3; \
	VMOVUPD     16(R10)(AX*8), X4; \
	VINSERTF128 $1, 16(R12)(AX*8), Y4, Y4; \
	VUNPCKLPD   Y4, Y3, Y7; \
	VUNPCKHPD   Y4, Y3, Y8

// ACOL1 gathers step k (k in AX) of the same four rows into Y5.
#define ACOL1 \
	VMOVSD      (SI)(AX*8), X5; \
	VMOVHPD     (R10)(AX*8), X5, X5; \
	VMOVSD      (R11)(AX*8), X6; \
	VMOVHPD     (R12)(AX*8), X6, X6; \
	VINSERTF128 $1, X6, Y5, Y5

// MROWS points R10..R12 at rows 1..3 of the four rows of a from SI, and DI
// at row 0 of b, for the next four output rows; AX = k = 0.
#define MROWS \
	LEAQ (SI)(BX*1), R10; \
	LEAQ (SI)(BX*2), R11; \
	LEAQ (R10)(BX*2), R12; \
	MOVQ DX, DI; \
	XORQ AX, AX

// func matMulNarrowAVX2(out, a, b []float64, inner, cols int)
//
// MatMul for one to three columns (cols), four rows a pass: len(out)/cols
// rows, a multiple of four, of out = a·b with a inner wide. Each pass
// gathers four steps of the four rows of a into registers (ACOLS4), then
// one at a time for the last inner % 4 (ACOL1), and adds each step to
// every column (NSTEP), in ascending k.
TEXT ·matMulNarrowAVX2(SB), NOSPLIT, $0-88
	MOVQ   out_base+0(FP), R8
	MOVQ   out_len+8(FP), R9
	LEAQ   (R8)(R9*8), R9      // the end of out
	MOVQ   a_base+24(FP), SI
	MOVQ   b_base+48(FP), DX
	MOVQ   inner+72(FP), R13
	MOVQ   R13, CX
	ANDQ   $-4, CX             // the steps ACOLS4 gathers
	MOVQ   R13, BX
	SHLQ   $3, BX              // a's row stride in bytes
	VXORPD Y15, Y15, Y15
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	CMPQ   cols+80(FP), $2
	JLT    m1rows
	JEQ    m2rows
	JMP    m3rows

m1rows:
	CMPQ R8, R9
	JAE  mdone
	MROWS
	JMP  m1k4test

	PCALIGN $64
m1k4loop:
	ACOLS4
	NSTEP1(Y5, 0)
	NSTEP1(Y6, 8)
	NSTEP1(Y7, 16)
	NSTEP1(Y8, 24)
	ADDQ $32, DI
	ADDQ $4, AX

m1k4test:
	CMPQ AX, CX
	JLT  m1k4loop
	JMP  m1ktest

m1kloop:
	ACOL1
	NSTEP1(Y5, 0)
	ADDQ $8, DI
	INCQ AX

m1ktest:
	CMPQ AX, R13
	JLT  m1kloop
	NSTORE1
	ADDQ $32, R8
	LEAQ (SI)(BX*4), SI
	JMP  m1rows

m2rows:
	CMPQ R8, R9
	JAE  mdone
	MROWS
	JMP  m2k4test

	PCALIGN $64
m2k4loop:
	ACOLS4
	NSTEP2(Y5, 0, 8)
	NSTEP2(Y6, 16, 24)
	NSTEP2(Y7, 32, 40)
	NSTEP2(Y8, 48, 56)
	ADDQ $64, DI
	ADDQ $4, AX

m2k4test:
	CMPQ AX, CX
	JLT  m2k4loop
	JMP  m2ktest

m2kloop:
	ACOL1
	NSTEP2(Y5, 0, 8)
	ADDQ $16, DI
	INCQ AX

m2ktest:
	CMPQ AX, R13
	JLT  m2kloop
	NSTORE2
	ADDQ $64, R8
	LEAQ (SI)(BX*4), SI
	JMP  m2rows

m3rows:
	CMPQ R8, R9
	JAE  mdone
	MROWS
	JMP  m3k4test

	PCALIGN $64
m3k4loop:
	ACOLS4
	NSTEP3(Y5, 0, 8, 16)
	NSTEP3(Y6, 24, 32, 40)
	NSTEP3(Y7, 48, 56, 64)
	NSTEP3(Y8, 72, 80, 88)
	ADDQ $96, DI
	ADDQ $4, AX

m3k4test:
	CMPQ AX, CX
	JLT  m3k4loop
	JMP  m3ktest

m3kloop:
	ACOL1
	NSTEP3(Y5, 0, 8, 16)
	ADDQ $24, DI
	INCQ AX

m3ktest:
	CMPQ AX, R13
	JLT  m3kloop
	NSTORE3
	ADDQ $96, R8
	LEAQ (SI)(BX*4), SI
	JMP  m3rows

mdone:
	VZEROUPPER
	RET

// func transANarrowAVX2(out, a, b []float64, k, stride, cols int)
//
// MatMulTransA for one to three columns (cols), four output rows a pass:
// len(out)/cols rows, a multiple of four, of out = aᵀ·b with a k rows of
// stride values. Output rows i..i+3 are a[·][i..i+3], contiguous in a, so
// each step of k is one load (Y5) added to every column (NSTEP), in
// ascending k.
TEXT ·transANarrowAVX2(SB), NOSPLIT, $0-96
	MOVQ   out_base+0(FP), R8
	MOVQ   out_len+8(FP), R9
	LEAQ   (R8)(R9*8), R9      // the end of out
	MOVQ   a_base+24(FP), SI
	MOVQ   b_base+48(FP), DX
	MOVQ   k+72(FP), R13
	MOVQ   stride+80(FP), BX
	SHLQ   $3, BX              // a's row stride in bytes
	VXORPD Y15, Y15, Y15
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	CMPQ   cols+88(FP), $2
	JLT    t1rows
	JEQ    t2rows
	JMP    t3rows

t1rows:
	CMPQ R8, R9
	JAE  tdone
	MOVQ SI, R10               // a[k][i]
	MOVQ DX, DI                // b[k]
	MOVQ R13, AX               // steps left
	JMP  t1ktest

	PCALIGN $64
t1kloop:
	VMOVUPD (R10), Y5
	NSTEP1(Y5, 0)
	ADDQ    BX, R10
	ADDQ    $8, DI
	DECQ    AX

t1ktest:
	TESTQ AX, AX
	JNE   t1kloop
	NSTORE1
	ADDQ  $32, R8
	ADDQ  $32, SI
	JMP   t1rows

t2rows:
	CMPQ R8, R9
	JAE  tdone
	MOVQ SI, R10
	MOVQ DX, DI
	MOVQ R13, AX
	JMP  t2ktest

	PCALIGN $64
t2kloop:
	VMOVUPD (R10), Y5
	NSTEP2(Y5, 0, 8)
	ADDQ    BX, R10
	ADDQ    $16, DI
	DECQ    AX

t2ktest:
	TESTQ AX, AX
	JNE   t2kloop
	NSTORE2
	ADDQ  $64, R8
	ADDQ  $32, SI
	JMP   t2rows

t3rows:
	CMPQ R8, R9
	JAE  tdone
	MOVQ SI, R10
	MOVQ DX, DI
	MOVQ R13, AX
	JMP  t3ktest

	PCALIGN $64
t3kloop:
	VMOVUPD (R10), Y5
	NSTEP3(Y5, 0, 8, 16)
	ADDQ    BX, R10
	ADDQ    $24, DI
	DECQ    AX

t3ktest:
	TESTQ AX, AX
	JNE   t3kloop
	NSTORE3
	ADDQ  $96, R8
	ADDQ  $32, SI
	JMP   t3rows

tdone:
	VZEROUPPER
	RET
