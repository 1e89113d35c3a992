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

// ---- real kernels ----
//
// The real MGS chain and the half path's V·x. Each element's product and
// sum are again separate VEX multiplies and adds. Dot and axpyDot keep the
// dot's running sum one scalar chain in element order: the four products
// of a YMM step are added into X13 one lane at a time, lane 0 first.

// func dotAVX(x, y []float64) float64
TEXT ·dotAVX(SB), NOSPLIT, $0-56
	MOVQ x_base+0(FP), SI
	MOVQ y_base+24(FP), DI
	MOVQ x_len+8(FP), CX
	VXORPD X13, X13, X13
	SHLQ $3, CX             // CX = bytes in x
	MOVQ CX, BX
	ANDQ $-32, BX           // BX = bytes in whole groups of four
	XORQ AX, AX
	CMPQ AX, BX
	JGE  dtail

dquad:
	VMOVUPD      (SI)(AX*1), Y0
	VMULPD       (DI)(AX*1), Y0, Y0
	VADDSD       X0, X13, X13
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X13, X13
	VEXTRACTF128 $1, Y0, X0
	VADDSD       X0, X13, X13
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X13, X13
	ADDQ $32, AX
	CMPQ AX, BX
	JLT  dquad

dtail:
	CMPQ AX, CX
	JGE  ddone
	VMOVSD (SI)(AX*1), X0
	VMULSD (DI)(AX*1), X0, X0
	VADDSD X0, X13, X13
	ADDQ $8, AX
	JMP  dtail

ddone:
	VMOVSD X13, ret+48(FP)
	VZEROUPPER
	RET

// func axpyAVX(a float64, x, y []float64)
TEXT ·axpyAVX(SB), NOSPLIT, $0-56
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ y_len+40(FP), CX
	VBROADCASTSD a+0(FP), Y14
	SHLQ $3, CX             // CX = bytes in y
	MOVQ CX, BX
	ANDQ $-32, BX           // BX = bytes in whole groups of four
	XORQ AX, AX
	CMPQ AX, BX
	JGE  atail

aquad:
	VMULPD  (SI)(AX*1), Y14, Y0
	VADDPD  (DI)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, BX
	JLT  aquad

atail:
	CMPQ AX, CX
	JGE  adone
	VMULSD (SI)(AX*1), X14, X0
	VADDSD (DI)(AX*1), X0, X0
	VMOVSD X0, (DI)(AX*1)
	ADDQ $8, AX
	JMP  atail

adone:
	VZEROUPPER
	RET

// func axpyDotAVX(a float64, x, y, w []float64) float64
TEXT ·axpyDotAVX(SB), NOSPLIT, $0-88
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DX
	MOVQ w_base+56(FP), DI
	MOVQ w_len+64(FP), CX
	VBROADCASTSD a+0(FP), Y14
	VXORPD X13, X13, X13
	SHLQ $3, CX             // CX = bytes in w
	MOVQ CX, BX
	ANDQ $-32, BX           // BX = bytes in whole groups of four
	XORQ AX, AX
	CMPQ AX, BX
	JGE  xtail

xquad:
	// w ← w + a·x on four elements, then their dot terms y·w.
	VMULPD       (SI)(AX*1), Y14, Y0
	VADDPD       (DI)(AX*1), Y0, Y0
	VMOVUPD      Y0, (DI)(AX*1)
	VMULPD       (DX)(AX*1), Y0, Y0
	VADDSD       X0, X13, X13
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X13, X13
	VEXTRACTF128 $1, Y0, X0
	VADDSD       X0, X13, X13
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X13, X13
	ADDQ $32, AX
	CMPQ AX, BX
	JLT  xquad

xtail:
	CMPQ AX, CX
	JGE  xdone
	VMULSD (SI)(AX*1), X14, X0
	VADDSD (DI)(AX*1), X0, X0
	VMOVSD X0, (DI)(AX*1)
	VMULSD (DX)(AX*1), X0, X0
	VADDSD X0, X13, X13
	ADDQ $8, AX
	JMP  xtail

xdone:
	VMOVSD X13, ret+80(FP)
	VZEROUPPER
	RET

// func mulVecTransAVX(t, a, x []float64, q int)
//
// t[i] = Σ_j a[j·q+i]·x[j] for the len(t) leading columns of a (a multiple
// of 16). A chunk of 32 columns keeps eight YMM accumulators, a chunk of 16
// keeps four, across all rows; each accumulator starts at +0 and adds one
// row's products per step, in row order.
TEXT ·mulVecTransAVX(SB), NOSPLIT, $0-80
	MOVQ t_base+0(FP), DI
	MOVQ t_len+8(FP), R8    // columns left
	MOVQ a_base+24(FP), SI  // first row of the current chunk
	MOVQ x_base+48(FP), DX
	MOVQ x_len+56(FP), CX   // rows
	MOVQ q+72(FP), R9
	SHLQ $3, R9             // row stride in bytes

chunk32:
	CMPQ R8, $32
	JLT  chunk16
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ SI, R10
	XORQ BX, BX

row32:
	CMPQ BX, CX
	JGE  store32
	VBROADCASTSD (DX)(BX*8), Y8
	VMULPD 0(R10), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(R10), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD 64(R10), Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD 96(R10), Y8, Y12
	VADDPD Y12, Y3, Y3
	VMULPD 128(R10), Y8, Y9
	VADDPD Y9, Y4, Y4
	VMULPD 160(R10), Y8, Y10
	VADDPD Y10, Y5, Y5
	VMULPD 192(R10), Y8, Y11
	VADDPD Y11, Y6, Y6
	VMULPD 224(R10), Y8, Y12
	VADDPD Y12, Y7, Y7
	ADDQ R9, R10
	INCQ BX
	JMP  row32

store32:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	ADDQ $256, DI
	ADDQ $256, SI
	SUBQ $32, R8
	JMP  chunk32

chunk16:
	CMPQ R8, $16
	JLT  mdone
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ SI, R10
	XORQ BX, BX

row16:
	CMPQ BX, CX
	JGE  store16
	VBROADCASTSD (DX)(BX*8), Y8
	VMULPD 0(R10), Y8, Y9
	VADDPD Y9, Y0, Y0
	VMULPD 32(R10), Y8, Y10
	VADDPD Y10, Y1, Y1
	VMULPD 64(R10), Y8, Y11
	VADDPD Y11, Y2, Y2
	VMULPD 96(R10), Y8, Y12
	VADDPD Y12, Y3, Y3
	ADDQ R9, R10
	INCQ BX
	JMP  row16

store16:
	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	ADDQ $128, DI
	ADDQ $128, SI
	SUBQ $16, R8
	JMP  chunk16

mdone:
	VZEROUPPER
	RET

// ---- Givens rotations of the projected eigensolve ----
//
// Complex products are formed as in cAxpyAVX: k·v = VADDSUBPD of
// kr·[vr, vi] and ki·[vi, vr], which is Go's [kr·vr − ki·vi, kr·vi + ki·vr]
// with its two products, one difference and one sum; the two products of
// a rotated element are then added by one VADDPD.

// func rotateRowsAVX(x, y []complex128, c, s, ns complex128)
//
// x ← c·x + s·y and y ← ns·x + c·y elementwise, two elements per YMM.
TEXT ·rotateRowsAVX(SB), NOSPLIT, $0-96
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), DI
	VBROADCASTSD c_real+48(FP), Y8
	VBROADCASTSD c_imag+56(FP), Y9
	VBROADCASTSD s_real+64(FP), Y10
	VBROADCASTSD s_imag+72(FP), Y11
	VBROADCASTSD ns_real+80(FP), Y12
	VBROADCASTSD ns_imag+88(FP), Y13
	SHLQ $4, CX             // CX = bytes in x
	MOVQ CX, BX
	ANDQ $-32, BX           // BX = bytes in whole element pairs
	XORQ AX, AX
	CMPQ AX, BX
	JGE  rlast

rpair:
	VMOVUPD   (SI)(AX*1), Y0    // a
	VMOVUPD   (DI)(AX*1), Y1    // b
	VPERMILPD $5, Y0, Y2
	VPERMILPD $5, Y1, Y3
	VMULPD    Y8, Y0, Y4
	VMULPD    Y9, Y2, Y5
	VADDSUBPD Y5, Y4, Y4        // c·a
	VMULPD    Y10, Y1, Y5
	VMULPD    Y11, Y3, Y6
	VADDSUBPD Y6, Y5, Y5        // s·b
	VADDPD    Y5, Y4, Y4
	VMULPD    Y12, Y0, Y5
	VMULPD    Y13, Y2, Y6
	VADDSUBPD Y6, Y5, Y5        // ns·a
	VMULPD    Y8, Y1, Y6
	VMULPD    Y9, Y3, Y7
	VADDSUBPD Y7, Y6, Y6        // c·b
	VADDPD    Y6, Y5, Y5
	VMOVUPD   Y4, (SI)(AX*1)
	VMOVUPD   Y5, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, BX
	JLT  rpair

rlast:
	CMPQ AX, CX
	JGE  rdone
	VMOVUPD   (SI)(AX*1), X0
	VMOVUPD   (DI)(AX*1), X1
	VPERMILPD $1, X0, X2
	VPERMILPD $1, X1, X3
	VMULPD    X8, X0, X4
	VMULPD    X9, X2, X5
	VADDSUBPD X5, X4, X4
	VMULPD    X10, X1, X5
	VMULPD    X11, X3, X6
	VADDSUBPD X6, X5, X5
	VADDPD    X5, X4, X4
	VMULPD    X12, X0, X5
	VMULPD    X13, X2, X6
	VADDSUBPD X6, X5, X5
	VMULPD    X8, X1, X6
	VMULPD    X9, X3, X7
	VADDSUBPD X7, X6, X6
	VADDPD    X6, X5, X5
	VMOVUPD   X4, (SI)(AX*1)
	VMOVUPD   X5, (DI)(AX*1)

rdone:
	VZEROUPPER
	RET

// func rotateColumnPairAVX(p []complex128, stride, rows int, c, cs, ns complex128)
//
// For each of rows pairs [a, b] = p[i·stride : i·stride+2]:
// a ← c·a + cs·b and b ← ns·a + c·b, one pair per YMM. With the pair's
// halves swapped, [b, a], both outputs are [c, c]·[a, b] + [cs, ns]·[b, a].
TEXT ·rotateColumnPairAVX(SB), NOSPLIT, $0-88
	MOVQ p_base+0(FP), SI
	MOVQ stride+24(FP), DX
	MOVQ rows+32(FP), CX
	SHLQ $4, DX             // row stride in bytes
	VBROADCASTSD c_real+40(FP), Y8
	VBROADCASTSD c_imag+48(FP), Y9
	VMOVDDUP     cs_real+56(FP), X10
	VMOVDDUP     ns_real+72(FP), X12
	VINSERTF128  $1, X12, Y10, Y10  // [csr, csr, nsr, nsr]
	VMOVDDUP     cs_imag+64(FP), X11
	VMOVDDUP     ns_imag+80(FP), X12
	VINSERTF128  $1, X12, Y11, Y11  // [csi, csi, nsi, nsi]
	TESTQ CX, CX
	JLE   cdone

crow:
	VMOVUPD    (SI), Y0             // [a, b]
	VPERM2F128 $1, Y0, Y0, Y1       // [b, a]
	VPERMILPD  $5, Y0, Y2
	VPERMILPD  $5, Y1, Y3
	VMULPD     Y8, Y0, Y4
	VMULPD     Y9, Y2, Y5
	VADDSUBPD  Y5, Y4, Y4           // [c·a, c·b]
	VMULPD     Y10, Y1, Y5
	VMULPD     Y11, Y3, Y6
	VADDSUBPD  Y6, Y5, Y5           // [cs·b, ns·a]
	VADDPD     Y5, Y4, Y4
	VMOVUPD    Y4, (SI)
	ADDQ DX, SI
	DECQ CX
	JNZ  crow

cdone:
	VZEROUPPER
	RET
