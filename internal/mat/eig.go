package mat

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
)

// ErrNoConvergence is returned when an iterative eigenvalue or singular
// value routine fails to converge within its iteration budget.
var ErrNoConvergence = errors.New("mat: eigenvalue iteration did not converge")

// givens holds a complex Givens rotation:
//
//	[ c        s ] [ f ]   [ r ]
//	[ -conj(s) c ] [ g ] = [ 0 ]
//
// with real c ≥ 0 and c² + |s|² = 1.
type givens struct {
	c float64
	s complex128
}

// makeGivens computes the rotation zeroing g against f.
func makeGivens(f, g complex128) givens {
	if g == 0 {
		return givens{c: 1, s: 0}
	}
	if f == 0 {
		return givens{c: 0, s: cmplx.Conj(g) / complex(cmplx.Abs(g), 0)}
	}
	af, ag := cmplx.Abs(f), cmplx.Abs(g)
	r := math.Hypot(af, ag)
	c := af / r
	s := f / complex(af, 0) * cmplx.Conj(g) / complex(r, 0)
	return givens{c: c, s: s}
}

// SchurResult holds a complex Schur decomposition A = Z·T·Zᴴ with T upper
// triangular. Z may be nil when vectors were not requested.
type SchurResult struct {
	T *CDense
	Z *CDense
	// Values are the eigenvalues (the diagonal of T).
	Values []complex128
}

// CSchur computes the complex Schur decomposition of the square matrix a.
// If wantZ is false, Z is nil and only T/eigenvalues are produced; the
// Hessenberg reduction then skips accumulating its Q, which never feeds T.
func CSchur(a *CDense, wantZ bool) (*SchurResult, error) {
	h, zt := hessenberg(a, wantZ)
	if err := hessenbergQR(h, zt); err != nil {
		return nil, err
	}
	var z *CDense
	if wantZ {
		z = zt.T()
	}
	n := a.Rows
	vals := make([]complex128, n)
	for i := 0; i < n; i++ {
		vals[i] = h.At(i, i)
	}
	return &SchurResult{T: h, Z: z, Values: vals}, nil
}

// hessenbergQR triangularizes the upper Hessenberg matrix h in place using
// shifted QR iterations with Givens rotations. zt, when non-nil, holds the
// rows of Z being accumulated, transposed: each column of zt is one row of
// Z, so rotating two columns of Z is a pass over two contiguous rows of
// zt. A full Zᵀ (n×n) accumulates every Schur vector; an n×1 zt tracks a
// single row of Z, for callers that need no more.
func hessenbergQR(h *CDense, zt *CDense) error {
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
		for k := lo; k < hi; k++ {
			var gv givens
			if k == lo {
				gv = makeGivens(h.At(lo, lo)-shift, h.At(lo+1, lo))
			} else {
				gv = makeGivens(h.At(k, k-1), h.At(k+1, k-1))
			}
			c := complex(gv.c, 0)
			// Rows k, k+1 from column k-1 on (from lo for the first).
			cLo := max(k-1, lo)
			rotateRows(h.Data[k*n+cLo:(k+1)*n], h.Data[(k+1)*n+cLo:(k+2)*n], c, gv.s)
			if k > lo {
				h.Set(k+1, k-1, 0)
			}
			rotateColumnPair(h, k, min(k+2, hi), c, gv.s)
			if zt != nil {
				rotateRows(zt.Row(k), zt.Row(k+1), c, cmplx.Conj(gv.s))
			}
		}
	}
	return nil
}

// rotateRows applies the rotation [x; y] ← [c s; −s̄ c]·[x; y] to the
// equal-length rows x and y.
func rotateRows(x, y []complex128, c, s complex128) {
	if len(y) != len(x) {
		panic(fmt.Sprintf("mat: rotating rows of %d and %d elements", len(x), len(y)))
	}
	ns := -cmplx.Conj(s)
	if useAVX {
		rotateRowsAVX(x, y, c, s, ns)
		return
	}
	rotateRowsGo(x, y, c, s, ns)
}

// rotateRowsGo is the pure-Go rotateRows, with ns = −conj(s).
func rotateRowsGo(x, y []complex128, c, s, ns complex128) {
	y = y[:len(x)]
	for j, a := range x {
		b := y[j]
		x[j] = c*a + s*b
		y[j] = ns*a + c*b
	}
}

// rotateColumnPair applies the conjugate rotation to columns (j, j+1) of m
// over rows [0, rHi]: [col j, col j+1] ← [col j, col j+1]·Gᴴ. The two
// columns are adjacent, so each row's pair is contiguous.
func rotateColumnPair(m *CDense, j, rHi int, c, s complex128) {
	if rHi < 0 {
		return
	}
	if j < 0 || j+1 >= m.Cols || rHi >= m.Rows {
		panic(fmt.Sprintf("mat: rotating columns %d, %d of rows 0..%d of a %d×%d matrix", j, j+1, rHi, m.Rows, m.Cols))
	}
	cs, ns := cmplx.Conj(s), -s
	if useAVX {
		rotateColumnPairAVX(m.Data[j:], m.Cols, rHi+1, c, cs, ns)
		return
	}
	rotateColumnPairGo(m.Data[j:], m.Cols, rHi+1, c, cs, ns)
}

// rotateColumnPairGo is the pure-Go rotateColumnPair over the pairs
// p[i·stride : i·stride+2], i < rows, with cs = conj(s) and ns = −s.
func rotateColumnPairGo(p []complex128, stride, rows int, c, cs, ns complex128) {
	for i := 0; i < rows; i++ {
		pair := p[i*stride : i*stride+2]
		a, b := pair[0], pair[1]
		pair[0] = c*a + cs*b
		pair[1] = ns*a + c*b
	}
}

// CEigValues returns the eigenvalues of the square complex matrix a.
func CEigValues(a *CDense) ([]complex128, error) {
	res, err := CSchur(a, false)
	if err != nil {
		return nil, err
	}
	return res.Values, nil
}

// EigValues returns the eigenvalues of the square real matrix a as complex
// numbers (conjugate pairs for complex eigenvalues).
func EigValues(a *Dense) ([]complex128, error) {
	return CEigValues(a.ToComplex())
}

// CEig computes eigenvalues and right eigenvectors of the square complex
// matrix a. Column j of the returned matrix is a unit-norm eigenvector for
// Values[j]. Eigenvectors of defective matrices are best-effort.
func CEig(a *CDense) (values []complex128, vectors *CDense, err error) {
	t, zt := hessenberg(a, true)
	if err := hessenbergQR(t, zt); err != nil {
		return nil, nil, err
	}
	n := a.Rows
	values = make([]complex128, n)
	vectors = NewCDense(n, n)
	y := make([]complex128, n)
	x := make([]complex128, n)
	small := schurFloor(t)
	for k := 0; k < n; k++ {
		values[k] = t.At(k, k)
		triangularEigvec(t, k, small, y)
		// Transform back: x = Z·y, walking the rows of Zᵀ, and normalize.
		clear(x)
		for j := 0; j <= k; j++ {
			yj := y[j]
			for i, z := range zt.Row(j) {
				x[i] += z * yj
			}
		}
		if nrm := CNorm2(x); nrm > 0 {
			inv := complex(1/nrm, 0)
			for i := range x {
				x[i] *= inv
			}
		}
		for i, xi := range x {
			vectors.Data[i*n+k] = xi
		}
	}
	return values, vectors, nil
}

// HessenbergRitzEstimates returns the eigenvalues of h, which must be upper
// Hessenberg (zero below the subdiagonal), and, for each, |e_lastᵀ·x| for
// its unit eigenvector x: what CEig reports as values and as the last row
// of vectors, up to rounding, without CEig's Hessenberg reduction, Schur
// vectors or eigenvector back-transform. Only the last row of Z is
// accumulated, as ARPACK's zneigh does. It is the check an Arnoldi sweep
// runs on its projected matrix, where the residual estimate of Ritz pair
// i is h_{k+1,k}·lastAbs[i].
//
// h is overwritten: the two returned slices are the only allocations, so
// h itself serves as scratch.
func HessenbergRitzEstimates(h *CDense) (values []complex128, lastAbs []float64, err error) {
	n := h.Rows
	if h.Cols != n {
		panic(fmt.Sprintf("mat: Ritz estimates of non-square %d×%d matrix", n, h.Cols))
	}
	values = make([]complex128, n)
	lastAbs = make([]float64, n)
	if n == 0 {
		return values, lastAbs, nil
	}
	// Until the eigenvalues are read off, values holds Z's last row, an
	// n×1 Zᵀ that starts as e_lastᵀ (no Hessenberg reduction: Q = I).
	values[n-1] = 1
	zl := CDense{Rows: n, Cols: 1, Data: values}
	if err := hessenbergQR(h, &zl); err != nil {
		return nil, nil, err
	}
	small := schurFloor(h)
	// Eigenvector k of T is written over row k of h (T's zero strictly
	// lower part plus its diagonal entry): back-substitution for k reads
	// only rows above k, so walking k downwards never reads a row it has
	// overwritten, and once k is done Z's last row is no longer needed at
	// index k, so values[k] takes the eigenvalue.
	for k := n - 1; k >= 0; k-- {
		lambda := h.At(k, k)
		y := h.Row(k)[:k+1]
		triangularEigvec(h, k, small, y)
		var s complex128
		for j, yj := range y {
			s += values[j] * yj
		}
		lastAbs[k] = cmplx.Abs(s) / CNorm2(y)
		values[k] = lambda
	}
	return values, lastAbs, nil
}

// schurFloor is the scale floor for near-singular diagonal differences in
// triangularEigvec: ε times the entrywise 1-norm of the upper triangle.
func schurFloor(t *CDense) float64 {
	n := t.Rows
	var tnorm float64
	for i := 0; i < n; i++ {
		for _, v := range t.Data[i*n+i : (i+1)*n] {
			tnorm += cmplx.Abs(v)
		}
	}
	small := 2.2e-16 * tnorm
	if small == 0 {
		small = 2.2e-16
	}
	return small
}

// triangularEigvec writes to y[:k+1] the eigenvector of the upper
// triangular t for its diagonal entry k: y[k] = 1 and (T − λI)·y = 0 above
// row k by back-substitution, with diagonal differences below small raised
// to small. It reads t.At(k, k) before writing y and then only rows above
// k, so y may alias row k of t.
func triangularEigvec(t *CDense, k int, small float64, y []complex128) {
	lambda := t.At(k, k)
	y[k] = 1
	for i := k - 1; i >= 0; i-- {
		row := t.Row(i)
		var s complex128
		for j := i + 1; j <= k; j++ {
			s += row[j] * y[j]
		}
		d := row[i] - lambda
		if cmplx.Abs(d) < small {
			d = complex(small, 0)
		}
		y[i] = -s / d
	}
}

// CInverseIteration refines an eigenvector of a for the approximate
// eigenvalue lambda by a few shifted inverse-power steps. v0 is the start
// vector (may be nil for a deterministic pseudo-random start). Returns the
// unit-norm eigenvector and the Rayleigh-quotient refined eigenvalue.
func CInverseIteration(a *CDense, lambda complex128, v0 []complex128, steps int) ([]complex128, complex128, error) {
	n := a.Rows
	if a.Cols != n {
		panic(fmt.Sprintf("mat: inverse iteration on non-square %d×%d", n, a.Cols))
	}
	shifted := a.Clone()
	// Perturb the shift slightly off the eigenvalue so the solve is stable.
	scale := a.FrobNorm()
	if scale == 0 {
		scale = 1
	}
	pert := complex(1e-10*scale, 0)
	for {
		for i := 0; i < n; i++ {
			shifted.Set(i, i, a.At(i, i)-lambda-pert)
		}
		f, err := CLUFactor(shifted)
		if err == nil {
			v := v0
			if v == nil {
				v = make([]complex128, n)
				st := uint64(0x9e3779b97f4a7c15)
				for i := range v {
					st = st*6364136223846793005 + 1442695040888963407
					v[i] = complex(float64(st>>40)/float64(1<<24)-0.5, float64(st>>33&0xffffff)/float64(1<<24)-0.5)
				}
			}
			nrm := CNorm2(v)
			if nrm == 0 {
				return nil, 0, errors.New("mat: zero start vector")
			}
			CScaleVec(complex(1/nrm, 0), v)
			for s := 0; s < steps; s++ {
				v = f.Solve(v)
				nrm = CNorm2(v)
				if nrm == 0 || math.IsInf(nrm, 0) || math.IsNaN(nrm) {
					break
				}
				CScaleVec(complex(1/nrm, 0), v)
			}
			av := a.MulVec(v)
			mu := CDot(v, av)
			return v, mu, nil
		}
		// Singular shift: widen the perturbation and retry.
		pert *= 10
		if cmplx.Abs(pert) > 1e-3*scale {
			return nil, 0, ErrSingular
		}
	}
}
