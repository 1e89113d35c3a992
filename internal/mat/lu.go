package mat

import (
	"errors"
	"fmt"
)

// ErrSingular is returned when a factorization or solve encounters an
// (numerically) singular matrix.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// PLU holds an LU factorization with partial pivoting, P·A = L·U, over T.
// L (unit lower) and U (upper) are packed into a single matrix. A PLU is
// never written after factoring, so any number of goroutines may solve
// against one concurrently.
type PLU[T Scalar] struct {
	lu   *Matrix[T]
	piv  []int // row i of the factor came from row piv[i] of A
	sign int   // parity of the permutation, ±1
}

// LU is a real factorization, CLU a complex one.
type (
	LU  = PLU[float64]
	CLU = PLU[complex128]
)

// LUFactor computes the LU factorization of the square matrix a with
// partial pivoting. The input is not modified.
func LUFactor(a *Dense) (*LU, error) { return luFactor(a.Clone()) }

// LUFactorInPlace is LUFactor without the defensive copy: the input is
// overwritten with the factors and owned by the returned LU. Use it when a
// is a freshly built scratch matrix (e.g. the half path's real per-shift
// SMW capacitance).
func LUFactorInPlace(a *Dense) (*LU, error) { return luFactor(a) }

// CLUFactor computes the LU factorization of the square complex matrix a
// with partial pivoting. The input is not modified.
func CLUFactor(a *CDense) (*CLU, error) { return luFactor(a.Clone()) }

// CLUFactorInPlace is CLUFactor without the defensive copy: the input is
// overwritten with the factors and owned by the returned CLU. Use it when a
// is a freshly built scratch matrix (e.g. the per-shift SMW capacitance).
func CLUFactorInPlace(a *CDense) (*CLU, error) { return luFactor(a) }

// Inverse returns A⁻¹ for the square matrix a.
func Inverse(a *Dense) (*Dense, error) { return inverse(a) }

// CInverse returns A⁻¹ for the square complex matrix a.
func CInverse(a *CDense) (*CDense, error) { return inverse(a) }

func luFactor[T Scalar](lu *Matrix[T]) (*PLU[T], error) {
	if lu.Rows != lu.Cols {
		panic(fmt.Sprintf("mat: LU of non-square %d×%d matrix", lu.Rows, lu.Cols))
	}
	abs := absFunc[T]()
	n := lu.Rows
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		// Pivot search.
		p := k
		mx := abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := abs(lu.At(i, k)); a > mx {
				mx, p = a, i
			}
		}
		if mx == 0 {
			return nil, ErrSingular
		}
		if p != k {
			rk := lu.Row(k)
			rp := lu.Row(p)
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			piv[k], piv[p] = piv[p], piv[k]
			sign = -sign
		}
		pivVal := lu.At(k, k)
		for i := k + 1; i < n; i++ {
			m := lu.At(i, k) / pivVal
			lu.Set(i, k, m)
			if m == 0 {
				continue
			}
			ri := lu.Row(i)
			rk := lu.Row(k)
			for j := k + 1; j < n; j++ {
				ri[j] -= m * rk[j]
			}
		}
	}
	return &PLU[T]{lu: lu, piv: piv, sign: sign}, nil
}

func inverse[T Scalar](a *Matrix[T]) (*Matrix[T], error) {
	f, err := luFactor(a.Clone())
	if err != nil {
		return nil, err
	}
	return f.SolveMat(eye[T](a.Rows)), nil
}

// Solve solves A·x = b and returns x.
func (f *PLU[T]) Solve(b []T) []T {
	n := f.lu.Rows
	if len(b) != n {
		panic(fmt.Sprintf("mat: LU solve dimension mismatch %d vs %d", len(b), n))
	}
	// x doubles as the gather buffer: it does not alias b.
	x := make([]T, n)
	f.SolveIntoScratch(x, b, x)
	return x
}

// SolveIntoScratch solves A·x = b, writing the solution into dst (len n)
// with a caller-provided permutation gather buffer (len ≥ n). dst and b may
// alias. It only reads the factorization, so any number of goroutines may
// solve against the same PLU concurrently as long as each brings its own
// scratch; the shift-invert operators pass their apply scratch, so their
// solves never allocate.
func (f *PLU[T]) SolveIntoScratch(dst, b, scratch []T) {
	n := f.lu.Rows
	if len(b) != n || len(dst) != n || len(scratch) < n {
		panic("mat: LU SolveIntoScratch dimension mismatch")
	}
	// Gather b through the permutation first so dst may alias b.
	tmp := scratch
	for i := 0; i < n; i++ {
		tmp[i] = b[f.piv[i]]
	}
	copy(dst, tmp)
	// Forward substitution with unit-lower L.
	for i := 1; i < n; i++ {
		ri := f.lu.Row(i)
		var s T
		for j := 0; j < i; j++ {
			s += ri[j] * dst[j]
		}
		dst[i] -= s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		ri := f.lu.Row(i)
		var s T
		for j := i + 1; j < n; j++ {
			s += ri[j] * dst[j]
		}
		dst[i] = (dst[i] - s) / ri[i]
	}
}

// SolveMat solves A·X = B column-by-column and returns X.
func (f *PLU[T]) SolveMat(b *Matrix[T]) *Matrix[T] {
	n := f.lu.Rows
	if b.Rows != n {
		panic(fmt.Sprintf("mat: LU solve dimension mismatch %d vs %d", b.Rows, n))
	}
	x := newMatrix[T](n, b.Cols)
	col := make([]T, n)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < n; i++ {
			col[i] = b.At(i, j)
		}
		sol := f.Solve(col)
		for i := 0; i < n; i++ {
			x.Set(i, j, sol[i])
		}
	}
	return x
}

// Det returns the determinant of the factored matrix.
func (f *PLU[T]) Det() T {
	d := T(1)
	if f.sign < 0 {
		d = T(-1)
	}
	for i := 0; i < f.lu.Rows; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}
