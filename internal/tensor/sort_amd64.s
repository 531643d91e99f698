#include "textflag.h"

// func compareExchangeAVX2(a, b []int64)
//
// a[k], b[k] = min(a[k], b[k]), max(a[k], b[k]) for k < len(a), four keys a
// step: VPCMPGTQ marks the lanes where a > b, and one VPBLENDVB takes b there
// for the minimum, the other a for the maximum. Signed 64-bit compares are
// exact, so there is nothing to round: the result is sortRowsGo's inner loop
// bit for bit. The caller has checked len(b) >= len(a) and that the rows do
// not overlap.
TEXT ·compareExchangeAVX2(SB), NOSPLIT, $0-48
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	XORQ AX, AX // k
	MOVQ CX, DX
	ANDQ $-4, DX
	JMP  quads

loop4:
	VMOVDQU   (SI)(AX*8), Y0
	VMOVDQU   (DI)(AX*8), Y1
	VPCMPGTQ  Y1, Y0, Y2     // a > b
	VPBLENDVB Y2, Y1, Y0, Y3 // a > b ? b : a
	VPBLENDVB Y2, Y0, Y1, Y4 // a > b ? a : b
	VMOVDQU   Y3, (SI)(AX*8)
	VMOVDQU   Y4, (DI)(AX*8)
	ADDQ      $4, AX

quads:
	CMPQ AX, DX
	JLT  loop4
	VZEROUPPER
	JMP  singles

loop1:
	MOVQ    (SI)(AX*8), R8
	MOVQ    (DI)(AX*8), R9
	MOVQ    R8, R10
	CMPQ    R8, R9
	CMOVQGT R9, R8  // a > b: the minimum is b
	CMOVQGT R10, R9 // and the maximum a
	MOVQ    R8, (SI)(AX*8)
	MOVQ    R9, (DI)(AX*8)
	INCQ    AX

singles:
	CMPQ AX, CX
	JLT  loop1
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
//
// Extended control register 0: which register state the OS saves. Only
// valid when CPUID reports OSXSAVE.
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
