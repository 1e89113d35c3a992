//go:build !amd64

package mat

// useAVX is false off amd64: the pure-Go kernels are the only ones.
var useAVX = false

func cAxpyDotAVX(a complex128, x, y, w []complex128) complex128 {
	panic("mat: no AVX kernel on this architecture")
}

func cAxpyAVX(a complex128, x, y []complex128) {
	panic("mat: no AVX kernel on this architecture")
}

func dotAVX(x, y []float64) float64 {
	panic("mat: no AVX kernel on this architecture")
}

func axpyAVX(a float64, x, y []float64) {
	panic("mat: no AVX kernel on this architecture")
}

func axpyDotAVX(a float64, x, y, w []float64) float64 {
	panic("mat: no AVX kernel on this architecture")
}

func mulVecTransAVX(t, a, x []float64, q int) {
	panic("mat: no AVX kernel on this architecture")
}

func rotateRowsAVX(x, y []complex128, c, s, ns complex128) {
	panic("mat: no AVX kernel on this architecture")
}

func rotateColumnPairAVX(p []complex128, stride, rows int, c, cs, ns complex128) {
	panic("mat: no AVX kernel on this architecture")
}
