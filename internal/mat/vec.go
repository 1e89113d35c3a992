package mat

import (
	"fmt"
	"math"
)

// ---- real vector helpers ----

// Dot returns the inner product xᵀy.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: vector length mismatch %d vs %d", len(x), len(y)))
	}
	if useAVX {
		return dotAVX(x, y)
	}
	return dotGo(x, y)
}

// dotGo is the pure-Go Dot for x and y of equal length.
func dotGo(x, y []float64) float64 {
	y = y[:len(x)]
	var s float64
	for i, v := range x {
		s += v * y[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of x, guarding against overflow.
func Norm2(x []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + ssq*r*r
			scale = a
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// Axpy computes y ← y + a·x in place.
func Axpy(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: vector length mismatch %d vs %d", len(x), len(y)))
	}
	if useAVX {
		axpyAVX(a, x, y)
		return
	}
	axpyGo(a, x, y)
}

// axpyGo is the pure-Go Axpy for x and y of equal length.
func axpyGo(a float64, x, y []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += a * v
	}
}

// MulVecTrans computes t = Aᵀ·x for the row-major len(x)×len(t) matrix a:
// t[i] = Σ_j a[j·len(t)+i]·x[j], each sum taken from +0 in j order. It is
// the half path's V·x, with V stored transposed so each state's row is
// contiguous.
func MulVecTrans(t, a, x []float64) {
	q := len(t)
	if len(a) != len(x)*q {
		panic(fmt.Sprintf("mat: %d-element matrix for a %d×%d product", len(a), len(x), q))
	}
	if len(x) == 0 {
		clear(t)
		return
	}
	done := 0
	if useAVX {
		done = q &^ 15
		mulVecTransAVX(t[:done], a, x, q)
	}
	mulVecTransGo(t[done:], a[done:], x, q)
}

// mulVecTransGo is MulVecTrans over the len(t) columns of a row-major
// matrix with row stride q that a starts at.
func mulVecTransGo(t, a, x []float64, q int) {
	m := len(t)
	if m == 0 {
		return
	}
	clear(t)
	for j, xj := range x {
		row := a[j*q : j*q+m : j*q+m]
		for i, v := range row {
			t[i] += v * xj
		}
	}
}

// ScaleVec computes x ← a·x in place.
func ScaleVec(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// ProjSub removes the component of w along u: it returns h = uᵀ·w and
// performs w ← w − h·u in one call — the real-arithmetic counterpart of
// CProjSub for the half-size path's real Arnoldi loop.
func ProjSub(u, w []float64) float64 {
	h := Dot(u, w)
	if h != 0 {
		Axpy(-h, u, w)
	}
	return h
}

// ProjSubChain runs a modified Gram–Schmidt chain: for each u = q[k] in
// order it sets h[k] = uᵀ·w and w ← w − h[k]·u, bit for bit what len(q)
// successive ProjSub calls compute. The axpy of each link is fused with the
// dot of the next, so w is swept once per link instead of twice; a zero
// coefficient skips its axpy exactly as ProjSub does. This is the real
// counterpart of CProjSubChain.
func ProjSubChain(q [][]float64, w, h []float64) {
	if len(h) != len(q) {
		panic(fmt.Sprintf("mat: %d coefficients for a chain of %d", len(h), len(q)))
	}
	if len(q) == 0 {
		return
	}
	c := Dot(q[0], w)
	for k, u := range q {
		h[k] = c
		switch {
		case k+1 == len(q):
			if c != 0 {
				Axpy(-c, u, w)
			}
		case c == 0:
			c = Dot(q[k+1], w)
		default:
			c = axpyDot(-c, u, q[k+1], w)
		}
	}
}

// axpyDot performs w ← w + a·x and returns yᵀ·w of the updated w, with
// Axpy's update and Dot's accumulation order.
func axpyDot(a float64, x, y, w []float64) float64 {
	if len(x) != len(w) || len(y) != len(w) {
		panic(fmt.Sprintf("mat: vector length mismatch %d, %d vs %d", len(x), len(y), len(w)))
	}
	if useAVX {
		return axpyDotAVX(a, x, y, w)
	}
	return axpyDotGo(a, x, y, w)
}

// axpyDotGo is the pure-Go axpyDot for x, y and w of equal length.
func axpyDotGo(a float64, x, y, w []float64) float64 {
	x, y = x[:len(w)], y[:len(w)]
	var s float64
	for i, wv := range w {
		wv += a * x[i]
		w[i] = wv
		s += y[i] * wv
	}
	return s
}

// ---- complex vector helpers ----
//
// The complex BLAS-1 kernels below sit inside the Arnoldi MGS loop, which
// costs about as much CPU as the structured-operator applies on a
// full-path characterization (DESIGN.md, "The hot path"). They are written
// in explicit real arithmetic — no cmplx.Conj calls, no per-element
// [2]float64 literals — with the accumulation order of the original
// straightforward loops preserved, so results are bit-identical up to
// documented exceptions (CNorm2's fast path reassociates the sum of
// squares; CAxpy's unrolling is exact because it has no cross-iteration
// dependence).
//
// On amd64 with AVX, cAxpyDot (every MGS chain link but the last) and
// CAxpy (the last link, and every Ritz-vector lift) run hand-written
// kernels (vec_amd64.s) chosen once at init, as do their real
// counterparts axpyDot, Axpy and Dot, the half path's MulVecTrans, and
// the Givens rotations of the projected eigensolve (eig.go). They use no
// fused multiply-add and keep every dot's running sum one sequential
// chain in element order, so they match the Go loops, which stay as the
// fallback and the reference, bit for bit; the speed-up comes from
// vectorizing the axpys, the per-element products and, in MulVecTrans
// and the rotations, outputs that have no dependence on each other.

// CDot returns the inner product xᴴy (conjugating x).
func CDot(x, y []complex128) complex128 {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: vector length mismatch %d vs %d", len(x), len(y)))
	}
	y = y[:len(x)]
	var re, im float64
	for i, v := range x {
		w := y[i]
		vr, vi := real(v), imag(v)
		wr, wi := real(w), imag(w)
		re += vr*wr + vi*wi
		im += vr*wi - vi*wr
	}
	return complex(re, im)
}

// CNorm2 returns the Euclidean norm of a complex vector. The plain sum of
// squares is used whenever it stays comfortably inside the normal range;
// the scaled overflow-safe recurrence only runs as a fallback.
func CNorm2(x []complex128) float64 {
	var ssq float64
	for _, v := range x {
		vr, vi := real(v), imag(v)
		ssq += vr*vr + vi*vi
	}
	// 1e-292 ≈ 2⁻¹⁰²²/ε: above it no squared term can have lost precision
	// to the denormal range.
	if ssq >= 1e-292 && !math.IsInf(ssq, 1) {
		return math.Sqrt(ssq)
	}
	var scale float64
	ssq = 1
	for _, v := range x {
		for _, p := range [...]float64{real(v), imag(v)} {
			if p == 0 {
				continue
			}
			a := math.Abs(p)
			if scale < a {
				r := scale / a
				ssq = 1 + ssq*r*r
				scale = a
			} else {
				r := a / scale
				ssq += r * r
			}
		}
	}
	return scale * math.Sqrt(ssq)
}

// CAxpy computes y ← y + a·x in place.
func CAxpy(a complex128, x, y []complex128) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: vector length mismatch %d vs %d", len(x), len(y)))
	}
	if useAVX {
		cAxpyAVX(a, x, y)
		return
	}
	cAxpyGo(a, x, y)
}

// cAxpyGo is the pure-Go CAxpy for x and y of equal length. Iterations are
// independent, so the 4-way unroll is bit-identical to the scalar loop.
func cAxpyGo(a complex128, x, y []complex128) {
	ar, ai := real(a), imag(a)
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+3 < n; i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		y0, y1, y2, y3 := y[i], y[i+1], y[i+2], y[i+3]
		y[i] = complex(real(y0)+(ar*real(x0)-ai*imag(x0)), imag(y0)+(ar*imag(x0)+ai*real(x0)))
		y[i+1] = complex(real(y1)+(ar*real(x1)-ai*imag(x1)), imag(y1)+(ar*imag(x1)+ai*real(x1)))
		y[i+2] = complex(real(y2)+(ar*real(x2)-ai*imag(x2)), imag(y2)+(ar*imag(x2)+ai*real(x2)))
		y[i+3] = complex(real(y3)+(ar*real(x3)-ai*imag(x3)), imag(y3)+(ar*imag(x3)+ai*real(x3)))
	}
	for ; i < n; i++ {
		xi := x[i]
		yi := y[i]
		y[i] = complex(real(yi)+(ar*real(xi)-ai*imag(xi)), imag(yi)+(ar*imag(xi)+ai*real(xi)))
	}
}

// CProjSub removes the component of w along u: it returns h = uᴴ·w and
// performs w ← w − h·u in one call. This is the fused Gram–Schmidt
// projection step of the Arnoldi loop (one dot pass + one axpy pass with u
// hot in cache).
func CProjSub(u, w []complex128) complex128 {
	h := CDot(u, w)
	if h != 0 {
		CAxpy(-h, u, w)
	}
	return h
}

// CProjSubChain runs a modified Gram–Schmidt chain: for each u = q[k] in
// order it sets h[k] = uᴴ·w and w ← w − h[k]·u, bit for bit what len(q)
// successive CProjSub calls compute. The axpy of each link is fused with
// the dot of the next, so w is swept once per link instead of twice; a zero
// coefficient skips its axpy exactly as CProjSub does. One call is one MGS
// pass of an Arnoldi step over the locked vectors and the basis.
func CProjSubChain(q [][]complex128, w, h []complex128) {
	if len(h) != len(q) {
		panic(fmt.Sprintf("mat: %d coefficients for a chain of %d", len(h), len(q)))
	}
	if len(q) == 0 {
		return
	}
	c := CDot(q[0], w)
	for k, u := range q {
		h[k] = c
		switch {
		case k+1 == len(q):
			if c != 0 {
				CAxpy(-c, u, w)
			}
		case c == 0:
			c = CDot(q[k+1], w)
		default:
			c = cAxpyDot(-c, u, q[k+1], w)
		}
	}
}

// cAxpyDot performs w ← w + a·x and returns yᴴ·w of the updated w, with
// CAxpy's update and CDot's accumulation order.
func cAxpyDot(a complex128, x, y, w []complex128) complex128 {
	if len(x) != len(w) || len(y) != len(w) {
		panic(fmt.Sprintf("mat: vector length mismatch %d, %d vs %d", len(x), len(y), len(w)))
	}
	if useAVX {
		return cAxpyDotAVX(a, x, y, w)
	}
	return cAxpyDotGo(a, x, y, w)
}

// cAxpyDotGo is the pure-Go cAxpyDot for x, y and w of equal length.
func cAxpyDotGo(a complex128, x, y, w []complex128) complex128 {
	x, y = x[:len(w)], y[:len(w)]
	ar, ai := real(a), imag(a)
	var re, im float64
	for i, wv := range w {
		xv := x[i]
		wr := real(wv) + (ar*real(xv) - ai*imag(xv))
		wi := imag(wv) + (ar*imag(xv) + ai*real(xv))
		w[i] = complex(wr, wi)
		yr, yi := real(y[i]), imag(y[i])
		re += yr*wr + yi*wi
		im += yr*wi - yi*wr
	}
	return complex(re, im)
}

// CScaleVec computes x ← a·x in place.
func CScaleVec(a complex128, x []complex128) {
	for i := range x {
		x[i] *= a
	}
}

// CCopy returns a copy of x.
func CCopy(x []complex128) []complex128 {
	y := make([]complex128, len(x))
	copy(y, x)
	return y
}
