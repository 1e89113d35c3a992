#include "textflag.h"

// AVX kernels for the complex MGS chain (vec_amd64.go). Every product and
// sum is a separately rounded VEX multiply or add — no fused multiply-add —
// so each element rounds exactly as the pure-Go loops in vec.go do. The
// complex multiply a·x is [ar·xr − ai·xi, ar·xi + ai·xr] = VADDSUBPD of
// ar·[xr, xi] and ai·[xi, xr]; the dot terms [yr·wi − yi·wr, yr·wr + yi·wi]
// are a VADDSUBPD of the unpacked products. The dot's running sum stays one
// sequential chain per part, in element order: the accumulator X13 holds
// [im, re] and takes one element's terms per VADDPD.

// func cAxpyDotAVX(a complex128, x, y, w []complex128) complex128
TEXT ·cAxpyDotAVX(SB), NOSPLIT, $0-104
	MOVQ x_base+16(FP), SI
	MOVQ y_base+40(FP), DX
	MOVQ w_base+64(FP), DI
	MOVQ w_len+72(FP), CX
	VBROADCASTSD a_real+0(FP), Y14
	VBROADCASTSD a_imag+8(FP), Y15
	VXORPD X13, X13, X13
	SHLQ $4, CX             // CX = bytes in w
	MOVQ CX, BX
	ANDQ $-32, BX           // BX = bytes in whole element pairs
	XORQ AX, AX
	CMPQ AX, BX
	JGE  single

pair:
	// w ← w + a·x on two elements.
	VMOVUPD   (SI)(AX*1), Y0
	VPERMILPD $5, Y0, Y1
	VMULPD    Y14, Y0, Y0
	VMULPD    Y15, Y1, Y1
	VADDSUBPD Y1, Y0, Y0
	VADDPD    (DI)(AX*1), Y0, Y0
	VMOVUPD   Y0, (DI)(AX*1)

	// Dot terms of yᴴ·w for the same two elements.
	VMOVUPD   (DX)(AX*1), Y2
	VPERMILPD $5, Y0, Y1
	VMULPD    Y2, Y0, Y3    // [yr·wr, yi·wi]
	VMULPD    Y2, Y1, Y4    // [yr·wi, yi·wr]
	VUNPCKLPD Y3, Y4, Y5    // [yr·wi, yr·wr]
	VUNPCKHPD Y3, Y4, Y6    // [yi·wr, yi·wi]
	VADDSUBPD Y6, Y5, Y5    // [im term, re term]
	VADDPD    X5, X13, X13
	VEXTRACTF128 $1, Y5, X5
	VADDPD    X5, X13, X13

	ADDQ $32, AX
	CMPQ AX, BX
	JLT  pair

single:
	CMPQ AX, CX
	JGE  done
	VMOVUPD   (SI)(AX*1), X0
	VPERMILPD $1, X0, X1
	VMULPD    X14, X0, X0
	VMULPD    X15, X1, X1
	VADDSUBPD X1, X0, X0
	VADDPD    (DI)(AX*1), X0, X0
	VMOVUPD   X0, (DI)(AX*1)
	VMOVUPD   (DX)(AX*1), X2
	VPERMILPD $1, X0, X1
	VMULPD    X2, X0, X3
	VMULPD    X2, X1, X4
	VUNPCKLPD X3, X4, X5
	VUNPCKHPD X3, X4, X6
	VADDSUBPD X6, X5, X5
	VADDPD    X5, X13, X13

done:
	VMOVHPD X13, ret_real+88(FP)
	VMOVSD  X13, ret_imag+96(FP)
	VZEROUPPER
	RET

// func cAxpyAVX(a complex128, x, y []complex128)
TEXT ·cAxpyAVX(SB), NOSPLIT, $0-64
	MOVQ x_base+16(FP), SI
	MOVQ y_base+40(FP), DI
	MOVQ y_len+48(FP), CX
	VBROADCASTSD a_real+0(FP), Y14
	VBROADCASTSD a_imag+8(FP), Y15
	SHLQ $4, CX             // CX = bytes in y
	MOVQ CX, BX
	ANDQ $-32, BX           // BX = bytes in whole element pairs
	XORQ AX, AX
	CMPQ AX, BX
	JGE  last

pair:
	VMOVUPD   (SI)(AX*1), Y0
	VPERMILPD $5, Y0, Y1
	VMULPD    Y14, Y0, Y0
	VMULPD    Y15, Y1, Y1
	VADDSUBPD Y1, Y0, Y0
	VADDPD    (DI)(AX*1), Y0, Y0
	VMOVUPD   Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, BX
	JLT  pair

last:
	CMPQ AX, CX
	JGE  out
	VMOVUPD   (SI)(AX*1), X0
	VPERMILPD $1, X0, X1
	VMULPD    X14, X0, X0
	VMULPD    X15, X1, X1
	VADDSUBPD X1, X0, X0
	VADDPD    (DI)(AX*1), X0, X0
	VMOVUPD   X0, (DI)(AX*1)

out:
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
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
