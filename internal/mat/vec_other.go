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
