//go:build !purego

#include "textflag.h"

DATA maxi<>+0(SB)/8, $0x7fffffffffffffff
DATA maxi<>+8(SB)/8, $0x7fffffffffffffff
DATA maxi<>+16(SB)/8, $0x7fffffffffffffff
DATA maxi<>+24(SB)/8, $0x7fffffffffffffff
GLOBL maxi<>(SB), RODATA|NOPTR, $32

DATA inf<>+0(SB)/8, $0x7ff0000000000000
DATA inf<>+8(SB)/8, $0x7ff0000000000000
DATA inf<>+16(SB)/8, $0x7ff0000000000000
DATA inf<>+24(SB)/8, $0x7ff0000000000000
GLOBL inf<>(SB), RODATA|NOPTR, $32

DATA half<>+0(SB)/8, $0x3fe0000000000000
DATA half<>+8(SB)/8, $0x3fe0000000000000
DATA half<>+16(SB)/8, $0x3fe0000000000000
DATA half<>+24(SB)/8, $0x3fe0000000000000
GLOBL half<>(SB), RODATA|NOPTR, $32

DATA minus1<>+0(SB)/8, $0xbff0000000000000
DATA minus1<>+8(SB)/8, $0xbff0000000000000
DATA minus1<>+16(SB)/8, $0xbff0000000000000
DATA minus1<>+24(SB)/8, $0xbff0000000000000
GLOBL minus1<>(SB), RODATA|NOPTR, $32

DATA ninf<>+0(SB)/8, $0xfff0000000000000
DATA ninf<>+8(SB)/8, $0xfff0000000000000
DATA ninf<>+16(SB)/8, $0xfff0000000000000
DATA ninf<>+24(SB)/8, $0xfff0000000000000
GLOBL ninf<>(SB), RODATA|NOPTR, $32

// KEYF turns the four sort keys in r into the bits of their floats (sortKey
// is its own inverse): r ^= (0 > r ? MaxInt64 : 0). t is scratch.
#define KEYF(r, t) \
	VPXOR    t, t, t; \
	VPCMPGTQ r, t, t; \
	VPAND    maxi<>(SB), t, t; \
	VPXOR    t, r, r

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

// func fillKeys4AVX2(dst []int64, src []float64) (finite bool)
//
// dst[k] = sortKey(bits of src[k]) for k < len(src), four values a step:
// VPCMPGTQ against zero marks the negative lanes with all ones, and that
// mask shifted right by one is MaxInt64 exactly there, which the XOR turns
// into the key. A lane whose exponent bits are all ones (VPAND, VPCMPEQQ) is
// a NaN or ±Inf; the marks are ORed over the row and finite reports none.
// The caller has checked len(dst) >= len(src) and that len(src) is a
// multiple of four.
TEXT ·fillKeys4AVX2(SB), NOSPLIT, $0-49
	MOVQ   dst_base+0(FP), DI
	MOVQ   src_base+24(FP), SI
	MOVQ   src_len+32(FP), CX
	XORQ   AX, AX                // k
	VPXOR  Y5, Y5, Y5            // zero
	VPXOR  Y6, Y6, Y6            // the non-finite marks
	VMOVDQU inf<>(SB), Y7        // the exponent field
	JMP    fillquads

fill4:
	VMOVDQU  (SI)(AX*8), Y0
	VPCMPGTQ Y0, Y5, Y1          // 0 > bits
	VPSRLQ   $1, Y1, Y1          // MaxInt64 where negative
	VPXOR    Y1, Y0, Y1
	VMOVDQU  Y1, (DI)(AX*8)
	VPAND    Y7, Y0, Y2
	VPCMPEQQ Y7, Y2, Y2          // exponent all ones
	VPOR     Y2, Y6, Y6
	ADDQ     $4, AX

fillquads:
	CMPQ AX, CX
	JLT  fill4
	VPTEST Y6, Y6
	SETEQ  finite+48(FP)
	VZEROUPPER
	RET

// func meanAround4AVX2(tile []int64, w, n, keep int, out []float64, declined []uint8)
//
// meanAroundSorted (columns.go) over the sorted tile's columns four at a
// time, one column a lane, for len(declined) groups: group g is columns
// 4g..4g+3, its means go to out[4g:4g+4] and bit j of declined[g] is set
// where column 4g+j may need the worker order to decide — those lanes'
// outputs are garbage and the caller redoes them.
//
// Per lane, Y1/Y2 and Y3/Y4 are the nearest ranks not taken yet below and
// above the median with their distances, Y7 the sum, Y8/Y9 the value taken
// last and its distance, Y10 the decline mask. The ranks behind the two
// candidates wait in two queues on the stack, QL going down and QR going up,
// filled a whole row at a time, so no load depends on a lane's choices. Each
// of keep steps takes the nearer candidate (the lower one when the distances
// are equal) with one VBLENDVPD, and the side it was taken from moves up its
// queue, again by blends; the sum runs in take order from +0 and is divided
// by keep once, as in the Go walk. A rank off either end of the column reads
// as ∓Inf at distance +Inf, which a walk of keep <= n steps never takes.
//
// Declines: a distinct value as far out as the one taken last, during the
// walk and, once it ends, anywhere in the column — one pass over its rows,
// so runs of equal values at the last distance settle as in the Go walk,
// however long. Two distinct values at one distance as a step's candidates
// always end in one of the two: the lower is taken, and the upper is either
// taken next at that distance or left behind at it.
//
// Frame: 0(SP) keep as a float64 ×4, 32(SP) the end of declined, 40(SP) and
// 48(SP) how many ranks below and above fit in the column (at most keep),
// 64(SP) QL[0..64), 2112(SP) QR[0..64). The caller has checked 2 <= n <= 64,
// 1 <= keep <= n, 4·len(declined) <= w and len(tile) >= n·w.
TEXT ·meanAround4AVX2(SB), 0, $4160-96
	MOVQ tile_base+0(FP), SI
	MOVQ out_base+48(FP), DI
	MOVQ declined_base+72(FP), R10
	MOVQ declined_len+80(FP), AX
	ADDQ R10, AX
	MOVQ AX, 32(SP)
	MOVQ w+24(FP), R8
	SHLQ $3, R8                    // the row stride in bytes
	MOVQ n+32(FP), AX
	DECQ AX
	SHRQ $1, AX                    // l0 = (n−1)/2: the median row, or the lower middle one
	MOVQ AX, R12
	IMULQ R8, R12                  // its byte offset
	LEAQ (R12)(R8*1), R13          // and that of the row above
	MOVQ keep+40(FP), CX
	MOVQ AX, BX
	CMPQ BX, CX
	CMOVQGT CX, BX
	MOVQ BX, 40(SP)                // below: min(l0, keep) ranks
	MOVQ n+32(FP), DX
	SUBQ AX, DX
	SUBQ $2, DX
	CMPQ DX, CX
	CMOVQGT CX, DX
	MOVQ DX, 48(SP)                // above: min(n−2−l0, keep) ranks
	CVTSQ2SD CX, X12
	VBROADCASTSD X12, Y12
	VMOVUPD Y12, 0(SP)

	// The queue slots past either end of the column hold ∓Inf for the
	// whole call: the shifts only ever copy one such slot into another.
	VMOVUPD ninf<>(SB), Y12
	VMOVUPD inf<>(SB), Y13
	LEAQ    64(SP), AX
	LEAQ    2112(SP), DX
	MOVQ    BX, R9
	SHLQ    $5, R9
	ADDQ    R9, AX
	MOVQ    48(SP), R9
	SHLQ    $5, R9
	ADDQ    R9, DX
	MOVQ    CX, R9
	SUBQ    BX, R9
	JZ      endsbelow

fillnl:
	VMOVUPD Y12, (AX)
	ADDQ    $32, AX
	DECQ    R9
	JNZ     fillnl

endsbelow:
	MOVQ CX, R9
	SUBQ 48(SP), R9
	JZ   groups

fillpl:
	VMOVUPD Y13, (DX)
	ADDQ    $32, DX
	DECQ    R9
	JNZ     fillpl
	JMP     groups

group:
	// The median, and the nearest ranks on either side: for odd n the
	// median itself at distance 0 below, for even n the two middle ranks
	// around their midpoint a/2 + b/2.
	VMOVDQU (SI)(R12*1), Y1
	KEYF(Y1, Y11)
	VMOVDQU (SI)(R13*1), Y3
	KEYF(Y3, Y11)
	VMOVAPD Y1, Y0
	TESTQ   $1, n+32(FP)
	JNZ     median
	VMULPD  half<>(SB), Y1, Y0
	VMULPD  half<>(SB), Y3, Y11
	VADDPD  Y11, Y0, Y0

median:
	VSUBPD Y0, Y1, Y2
	VANDPD maxi<>(SB), Y2, Y2
	VSUBPD Y0, Y3, Y4
	VANDPD maxi<>(SB), Y4, Y4

	// QL[i] = rank l0−1−i and QR[i] = rank l0+2+i, where the column has them.
	LEAQ 64(SP), AX
	MOVQ R12, BX
	MOVQ 40(SP), R9
	TESTQ R9, R9
	JZ   queuedbelow

queuebelow:
	SUBQ    R8, BX
	VMOVDQU (SI)(BX*1), Y12
	KEYF(Y12, Y11)
	VMOVUPD Y12, (AX)
	ADDQ    $32, AX
	DECQ    R9
	JNZ     queuebelow

queuedbelow:
	LEAQ 2112(SP), AX
	MOVQ R13, BX
	MOVQ 48(SP), R9
	TESTQ R9, R9
	JZ   queued

queueabove:
	ADDQ    R8, BX
	VMOVDQU (SI)(BX*1), Y12
	KEYF(Y12, Y11)
	VMOVUPD Y12, (AX)
	ADDQ    $32, AX
	DECQ    R9
	JNZ     queueabove

queued:
	VXORPD  Y7, Y7, Y7
	VXORPD  Y8, Y8, Y8
	VMOVUPD minus1<>(SB), Y9
	VXORPD  Y10, Y10, Y10
	MOVQ    keep+40(FP), CX

step:
	VCMPPD    $6, Y4, Y2, Y11  // right = !(dl <= dr)
	VBLENDVPD Y11, Y3, Y1, Y12 // x
	VBLENDVPD Y11, Y4, Y2, Y13 // d
	VCMPPD    $0, Y9, Y13, Y14 // d == lastD
	VCMPPD    $4, Y8, Y12, Y15 // x != lastX
	VANDPD    Y15, Y14, Y14
	VORPD     Y14, Y10, Y10    // a distinct value as far out as the last: decline
	VADDPD    Y12, Y7, Y7      // s += x
	VMOVAPD   Y12, Y8
	VMOVAPD   Y13, Y9

	// The side taken from moves up its queue.
	VMOVUPD   64(SP), Y14
	VBLENDVPD Y11, Y1, Y14, Y1
	VBLENDVPD Y11, 2112(SP), Y3, Y3
	VSUBPD    Y0, Y1, Y2
	VANDPD    maxi<>(SB), Y2, Y2
	VSUBPD    Y0, Y3, Y4
	VANDPD    maxi<>(SB), Y4, Y4
	MOVQ      CX, R9
	DECQ      R9               // the slots the steps left can still reach
	JZ        shifted
	LEAQ      64(SP), AX
	LEAQ      2112(SP), BX

shift:
	VMOVUPD   32(AX), Y12
	VBLENDVPD Y11, (AX), Y12, Y12
	VMOVUPD   Y12, (AX)
	VMOVUPD   (BX), Y13
	VBLENDVPD Y11, 32(BX), Y13, Y13
	VMOVUPD   Y13, (BX)
	ADDQ      $32, AX
	ADDQ      $32, BX
	DECQ      R9
	JNZ       shift

shifted:
	DECQ CX
	JNZ  step

	// The candidates are at least as far out as the last value taken, and
	// distances only grow outward: with both further out in every lane,
	// nothing left behind is at the last distance.
	VCMPPD $0, Y9, Y2, Y11
	VCMPPD $0, Y9, Y4, Y12
	VPOR   Y12, Y11, Y11
	VPTEST Y11, Y11
	JZ     ended

	// Otherwise look for a distinct value as far out as the last one
	// taken, anywhere in the column: the Go walk steps past the runs of
	// values equal to it at that distance and declines at the first that
	// differs. Every value taken that far out equals the last (a step
	// would have declined otherwise), so this is its check. The Go walk
	// also declines a last distance of +Inf: it runs off the column's end.
	VCMPPD $0, inf<>(SB), Y9, Y11
	VORPD  Y11, Y10, Y10
	MOVQ   SI, BX
	MOVQ   n+32(FP), R9

ends:
	VMOVDQU (BX), Y12
	KEYF(Y12, Y11)
	VCMPPD  $4, Y8, Y12, Y13   // x != lastX
	VSUBPD  Y0, Y12, Y12
	VANDPD  maxi<>(SB), Y12, Y12
	VCMPPD  $0, Y9, Y12, Y12   // d == lastD
	VANDPD  Y13, Y12, Y12
	VORPD   Y12, Y10, Y10
	ADDQ    R8, BX
	DECQ    R9
	JNZ     ends

ended:
	VDIVPD    0(SP), Y7, Y7
	VMOVUPD   Y7, (DI)
	VMOVMSKPD Y10, AX
	MOVB      AX, (R10)
	ADDQ      $32, SI
	ADDQ      $32, DI
	INCQ      R10

groups:
	CMPQ R10, 32(SP)
	JLT  group
	VZEROUPPER
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
