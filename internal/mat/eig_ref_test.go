package mat

import (
	"fmt"
	"math"
	"math/cmplx"
)

// This file keeps the Hessenberg reduction, Schur sweep and eigenvector
// extraction as they were before the row-walking rewrite, character for
// character apart from the ref prefix and the exceptional-shift counter.
// They are the reference the bit-identity battery (eig_bitident_test.go)
// holds the live kernels to.

// refExceptionalShifts counts the exceptional shifts refHessenbergQR takes,
// so the battery can show that an input reaches that branch.
var refExceptionalShifts int

// refCHessenberg reduces the square complex matrix a to upper Hessenberg form
// by unitary similarity: a = Q·H·Qᴴ. It returns H and Q. The input is not
// modified.
func refCHessenberg(a *CDense) (h, q *CDense) {
	if a.Rows != a.Cols {
		panic(fmt.Sprintf("mat: Hessenberg of non-square %d×%d matrix", a.Rows, a.Cols))
	}
	n := a.Rows
	h = a.Clone()
	q = CEye(n)
	if n < 3 {
		return h, q
	}
	v := make([]complex128, n)
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
		// H ← (I − 2vvᴴ)·H: rows k+1..n-1.
		for j := k; j < n; j++ {
			var s complex128
			for i := k + 1; i < n; i++ {
				s += cmplx.Conj(v[i]) * h.At(i, j)
			}
			s *= 2
			for i := k + 1; i < n; i++ {
				h.Set(i, j, h.At(i, j)-s*v[i])
			}
		}
		// H ← H·(I − 2vvᴴ): columns k+1..n-1.
		for i := 0; i < n; i++ {
			var s complex128
			for j := k + 1; j < n; j++ {
				s += h.At(i, j) * v[j]
			}
			s *= 2
			for j := k + 1; j < n; j++ {
				h.Set(i, j, h.At(i, j)-s*cmplx.Conj(v[j]))
			}
		}
		// Q ← Q·(I − 2vvᴴ).
		for i := 0; i < n; i++ {
			var s complex128
			for j := k + 1; j < n; j++ {
				s += q.At(i, j) * v[j]
			}
			s *= 2
			for j := k + 1; j < n; j++ {
				q.Set(i, j, q.At(i, j)-s*cmplx.Conj(v[j]))
			}
		}
		// Clean the annihilated entries.
		h.Set(k+1, k, beta)
		for i := k + 2; i < n; i++ {
			h.Set(i, k, 0)
		}
	}
	return h, q
}

// refCSchur computes the complex Schur decomposition of the square matrix a.
// If wantZ is false, Z is nil and only T/eigenvalues are produced.
func refCSchur(a *CDense, wantZ bool) (*SchurResult, error) {
	h, q := refCHessenberg(a)
	var z *CDense
	if wantZ {
		z = q
	}
	if err := refHessenbergQR(h, z); err != nil {
		return nil, err
	}
	n := a.Rows
	vals := make([]complex128, n)
	for i := 0; i < n; i++ {
		vals[i] = h.At(i, i)
	}
	return &SchurResult{T: h, Z: z, Values: vals}, nil
}

// refHessenbergQR triangularizes the upper Hessenberg matrix h in place using
// shifted QR iterations with Givens rotations, accumulating the unitary
// transformations into z when z is non-nil.
func refHessenbergQR(h *CDense, z *CDense) error {
	n := h.Rows
	if n == 0 {
		return nil
	}
	const maxIterPerEig = 40
	eps := 2.2e-16
	hi := n - 1
	iter := 0
	totalBudget := maxIterPerEig * n
	total := 0
	for hi > 0 {
		// Deflate: find lo such that h[lo, lo-1] is negligible.
		lo := hi
		for lo > 0 {
			sub := cmplx.Abs(h.At(lo, lo-1))
			if sub <= eps*(cmplx.Abs(h.At(lo-1, lo-1))+cmplx.Abs(h.At(lo, lo))) {
				h.Set(lo, lo-1, 0)
				break
			}
			lo--
		}
		if lo == hi {
			// Eigenvalue converged at position hi.
			hi--
			iter = 0
			continue
		}
		if total >= totalBudget {
			return ErrNoConvergence
		}
		// Wilkinson shift from the trailing 2×2 of the active block.
		var shift complex128
		iter++
		total++
		if iter > 0 && iter%12 == 0 {
			// Exceptional shift to break symmetry-induced stagnation.
			refExceptionalShifts++ // the one added line
			shift = h.At(hi, hi) + complex(0.75*cmplx.Abs(h.At(hi, hi-1)), 0)
		} else {
			a11 := h.At(hi-1, hi-1)
			a12 := h.At(hi-1, hi)
			a21 := h.At(hi, hi-1)
			a22 := h.At(hi, hi)
			tr := a11 + a22
			det := a11*a22 - a12*a21
			disc := cmplx.Sqrt(tr*tr - 4*det)
			l1 := (tr + disc) / 2
			l2 := (tr - disc) / 2
			if cmplx.Abs(l1-a22) < cmplx.Abs(l2-a22) {
				shift = l1
			} else {
				shift = l2
			}
		}
		// One implicit single-shift QR sweep on rows/cols lo..hi: the first
		// rotation is taken from the shifted column, then the bulge is
		// chased down the subdiagonal (implicit Q theorem).
		gv := makeGivens(h.At(lo, lo)-shift, h.At(lo+1, lo))
		refApplyGivensLeft(h, gv, lo, lo+1, lo, n-1)
		top := lo + 2
		if top > hi {
			top = hi
		}
		refApplyGivensRight(h, gv, lo, lo+1, 0, top)
		if z != nil {
			refApplyGivensRight(z, gv, lo, lo+1, 0, z.Rows-1)
		}
		for k := lo + 1; k < hi; k++ {
			gv = makeGivens(h.At(k, k-1), h.At(k+1, k-1))
			refApplyGivensLeft(h, gv, k, k+1, k-1, n-1)
			h.Set(k+1, k-1, 0)
			top = k + 2
			if top > hi {
				top = hi
			}
			refApplyGivensRight(h, gv, k, k+1, 0, top)
			if z != nil {
				refApplyGivensRight(z, gv, k, k+1, 0, z.Rows-1)
			}
		}
	}
	return nil
}

// refApplyGivensLeft applies the rotation to rows (r1, r2) over columns
// [cLo, cHi]: [row r1; row r2] ← G·[row r1; row r2].
func refApplyGivensLeft(m *CDense, g givens, r1, r2, cLo, cHi int) {
	c := complex(g.c, 0)
	for j := cLo; j <= cHi; j++ {
		a := m.At(r1, j)
		b := m.At(r2, j)
		m.Set(r1, j, c*a+g.s*b)
		m.Set(r2, j, -cmplx.Conj(g.s)*a+c*b)
	}
}

// refApplyGivensRight applies the conjugate rotation to columns (c1, c2) over
// rows [rLo, rHi]: [col c1, col c2] ← [col c1, col c2]·Gᴴ.
func refApplyGivensRight(m *CDense, g givens, c1, c2, rLo, rHi int) {
	c := complex(g.c, 0)
	for i := rLo; i <= rHi; i++ {
		a := m.At(i, c1)
		b := m.At(i, c2)
		m.Set(i, c1, c*a+cmplx.Conj(g.s)*b)
		m.Set(i, c2, -g.s*a+c*b)
	}
}

// CEig computes eigenvalues and right eigenvectors of the square complex
// matrix a. Column j of the returned matrix is a unit-norm eigenvector for
// Values[j]. Eigenvectors of defective matrices are best-effort.
func refCEig(a *CDense) (values []complex128, vectors *CDense, err error) {
	res, err := refCSchur(a, true)
	if err != nil {
		return nil, nil, err
	}
	n := a.Rows
	t, z := res.T, res.Z
	vectors = NewCDense(n, n)
	y := make([]complex128, n)
	// Scale floor for near-singular diagonal differences.
	var tnorm float64
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			tnorm += cmplx.Abs(t.At(i, j))
		}
	}
	small := 2.2e-16 * tnorm
	if small == 0 {
		small = 2.2e-16
	}
	for k := 0; k < n; k++ {
		lambda := t.At(k, k)
		for i := range y {
			y[i] = 0
		}
		y[k] = 1
		// Back-substitute (T − λI)·y = 0 above row k.
		for i := k - 1; i >= 0; i-- {
			var s complex128
			for j := i + 1; j <= k; j++ {
				s += t.At(i, j) * y[j]
			}
			d := t.At(i, i) - lambda
			if cmplx.Abs(d) < small {
				d = complex(small, 0)
			}
			y[i] = -s / d
		}
		// Transform back: x = Z·y and normalize.
		for i := 0; i < n; i++ {
			var s complex128
			for j := 0; j <= k; j++ {
				s += z.At(i, j) * y[j]
			}
			vectors.Set(i, k, s)
		}
		col := make([]complex128, n)
		for i := 0; i < n; i++ {
			col[i] = vectors.At(i, k)
		}
		nrm := CNorm2(col)
		if nrm > 0 {
			inv := complex(1/nrm, 0)
			for i := 0; i < n; i++ {
				vectors.Set(i, k, vectors.At(i, k)*inv)
			}
		}
	}
	return res.Values, vectors, nil
}
