package mat

// useAVX routes the BLAS-1 kernels, MulVecTrans and the Givens rotations
// to the AVX kernels in vec_amd64.s. It
// is set once at package init, from CPUID and XGETBV: the CPU must report
// AVX and OSXSAVE, and the OS must save the XMM and YMM state. The kernels
// reproduce the pure-Go loops bit for bit, so the choice never moves a
// result; tests flip it to compare the two.
var useAVX = hasAVX()

func hasAVX() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, ecx, _ := cpuid(1, 0)
	if ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	eax, _ := xgetbv()
	const xmmYmm = 1<<1 | 1<<2
	return eax&xmmYmm == xmmYmm
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// cAxpyDotAVX is cAxpyDotGo for x, y and w of equal length.
//
//go:noescape
func cAxpyDotAVX(a complex128, x, y, w []complex128) complex128

// cAxpyAVX is cAxpyGo for x and y of equal length.
//
//go:noescape
func cAxpyAVX(a complex128, x, y []complex128)

// dotAVX is dotGo for x and y of equal length.
//
//go:noescape
func dotAVX(x, y []float64) float64

// axpyAVX is axpyGo for x and y of equal length.
//
//go:noescape
func axpyAVX(a float64, x, y []float64)

// axpyDotAVX is axpyDotGo for x, y and w of equal length.
//
//go:noescape
func axpyDotAVX(a float64, x, y, w []float64) float64

// mulVecTransAVX is mulVecTransGo for the len(t) leading columns of the
// row-major len(x)×q matrix a; len(t) must be a multiple of 16.
//
//go:noescape
func mulVecTransAVX(t, a, x []float64, q int)

// rotateRowsAVX is rotateRowsGo for x and y of equal length, with
// ns = −conj(s) precomputed.
//
//go:noescape
func rotateRowsAVX(x, y []complex128, c, s, ns complex128)

// rotateColumnPairAVX rotates the pairs p[i·stride : i·stride+2] for
// i < rows, as rotateColumnPairGo does, with cs = conj(s) and ns = −s
// precomputed.
//
//go:noescape
func rotateColumnPairAVX(p []complex128, stride, rows int, c, cs, ns complex128)
