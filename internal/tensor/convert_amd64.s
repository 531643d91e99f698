//go:build !purego

#include "textflag.h"

// func widen4AVX2(dst []float64, src []float32)
//
// dst[k] = float64(src[k]) for k < len(dst), a multiple of four that the
// caller has checked len(src) covers: VCVTPS2PD is the packed CVTSS2SD that
// Go's float64(x) compiles to, so every lane widens to the Go conversion's
// bits, a signalling NaN quieted alike. Sixteen a step while they last, then
// four; the loads and stores take any alignment.
TEXT ·widen4AVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX // k
	MOVQ CX, DX
	ANDQ $-16, DX
	JMP  wide16

wloop16:
	VCVTPS2PD (SI)(AX*4), Y0
	VCVTPS2PD 16(SI)(AX*4), Y1
	VCVTPS2PD 32(SI)(AX*4), Y2
	VCVTPS2PD 48(SI)(AX*4), Y3
	VMOVUPD   Y0, (DI)(AX*8)
	VMOVUPD   Y1, 32(DI)(AX*8)
	VMOVUPD   Y2, 64(DI)(AX*8)
	VMOVUPD   Y3, 96(DI)(AX*8)
	ADDQ      $16, AX

wide16:
	CMPQ AX, DX
	JLT  wloop16
	JMP  wide4

wloop4:
	VCVTPS2PD (SI)(AX*4), Y0
	VMOVUPD   Y0, (DI)(AX*8)
	ADDQ      $4, AX

wide4:
	CMPQ AX, CX
	JLT  wloop4
	VZEROUPPER
	RET

// func narrow4AVX2(dst []float32, src []float64)
//
// dst[k] = float32(src[k]) for k < len(dst), a multiple of four that the
// caller has checked len(src) covers: VCVTPD2PS is the packed CVTSD2SS that
// Go's float32(x) compiles to, under the same MXCSR — round to nearest, ties
// to even, overflow to ±Inf, a signalling NaN quieted — so every lane narrows
// to the Go conversion's bits.
TEXT ·narrow4AVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI
	XORQ AX, AX // k
	MOVQ CX, DX
	ANDQ $-16, DX
	JMP  narrow16

nloop16:
	VCVTPD2PSY (SI)(AX*8), X0
	VCVTPD2PSY 32(SI)(AX*8), X1
	VCVTPD2PSY 64(SI)(AX*8), X2
	VCVTPD2PSY 96(SI)(AX*8), X3
	VMOVUPS    X0, (DI)(AX*4)
	VMOVUPS    X1, 16(DI)(AX*4)
	VMOVUPS    X2, 32(DI)(AX*4)
	VMOVUPS    X3, 48(DI)(AX*4)
	ADDQ       $16, AX

narrow16:
	CMPQ AX, DX
	JLT  nloop16
	JMP  narrow4

nloop4:
	VCVTPD2PSY (SI)(AX*8), X0
	VMOVUPS    X0, (DI)(AX*4)
	ADDQ       $4, AX

narrow4:
	CMPQ AX, CX
	JLT  nloop4
	VZEROUPPER
	RET
