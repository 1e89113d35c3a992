package mat

import (
	"fmt"
	"math"
	"math/cmplx"
)

// CHessenberg reduces the square complex matrix a to upper Hessenberg form
// by unitary similarity: a = Q·H·Qᴴ. It returns H and Q. The input is not
// modified.
func CHessenberg(a *CDense) (h, q *CDense) {
	h, qt := hessenberg(a, true)
	return h, qt.T()
}

// hessenberg is CHessenberg with Q accumulated transposed, as the Schur
// sweep takes it, or not at all when wantQT is false (qt is then nil): Q
// never feeds H. The three reflector updates walk contiguous rows.
func hessenberg(a *CDense, wantQT bool) (h, qt *CDense) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("mat: Hessenberg of non-square %d×%d matrix", a.Rows, a.Cols))
	}
	n := a.Rows
	h = a.Clone()
	if wantQT {
		qt = CEye(n)
	}
	if n < 3 {
		return h, qt
	}
	v := make([]complex128, n)
	// s holds the 2·vᴴ·H column sums of the left update, then the 2·Q·v
	// row sums of the Q update.
	s := make([]complex128, n)
	for k := 0; k < n-2; k++ {
		// Householder vector annihilating h[k+2..n-1, k].
		var norm float64
		for i := k + 1; i < n; i++ {
			norm = math.Hypot(norm, cmplx.Abs(h.At(i, k)))
		}
		if norm == 0 {
			continue
		}
		alpha := h.At(k+1, k)
		var beta complex128
		if alpha == 0 {
			beta = complex(norm, 0)
		} else {
			beta = -alpha / complex(cmplx.Abs(alpha), 0) * complex(norm, 0)
		}
		// v = x − beta·e1; then normalize to unit 2-norm.
		for i := k + 1; i < n; i++ {
			v[i] = h.At(i, k)
		}
		v[k+1] -= beta
		vn := CNorm2(v[k+1 : n])
		if vn == 0 {
			continue
		}
		inv := complex(1/vn, 0)
		for i := k + 1; i < n; i++ {
			v[i] *= inv
		}
		// H ← (I − 2vvᴴ)·H: rows k+1..n-1, columns k..n-1. The column
		// sums accumulate row by row, each in the same order as a
		// column walk.
		clear(s[k:])
		for i := k + 1; i < n; i++ {
			cv := cmplx.Conj(v[i])
			row := h.Row(i)
			for j := k; j < n; j++ {
				s[j] += cv * row[j]
			}
		}
		for j := k; j < n; j++ {
			s[j] *= 2
		}
		for i := k + 1; i < n; i++ {
			vi := v[i]
			row := h.Row(i)
			for j := k; j < n; j++ {
				row[j] = row[j] - s[j]*vi
			}
		}
		// H ← H·(I − 2vvᴴ): columns k+1..n-1.
		for i := 0; i < n; i++ {
			row := h.Row(i)
			var si complex128
			for j := k + 1; j < n; j++ {
				si += row[j] * v[j]
			}
			si *= 2
			for j := k + 1; j < n; j++ {
				row[j] = row[j] - si*cmplx.Conj(v[j])
			}
		}
		// Q ← Q·(I − 2vvᴴ), as rows k+1..n-1 of Qᵀ.
		if qt != nil {
			clear(s)
			for j := k + 1; j < n; j++ {
				vj := v[j]
				for i, q := range qt.Row(j) {
					s[i] += q * vj
				}
			}
			for i := range s {
				s[i] *= 2
			}
			for j := k + 1; j < n; j++ {
				cv := cmplx.Conj(v[j])
				row := qt.Row(j)
				for i := range row {
					row[i] = row[i] - s[i]*cv
				}
			}
		}
		// Clean the annihilated entries.
		h.Set(k+1, k, beta)
		for i := k + 2; i < n; i++ {
			h.Set(i, k, 0)
		}
	}
	return h, qt
}
