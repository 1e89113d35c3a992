package mat

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters an
// (numerically) singular matrix.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting: P·A = L·U.
// L (unit lower) and U (upper) are packed into a single matrix.
type LU struct {
	lu   *Dense
	piv  []int // row i of the factor came from row piv[i] of A
	sign int   // parity of the permutation, ±1
}

// LUFactor computes the LU factorization of the square matrix a with
// partial pivoting. The input is not modified.
func LUFactor(a *Dense) (*LU, error) {
	return luFactor(a.Clone())
}

// LUFactorInPlace is LUFactor without the defensive copy: the input is
// overwritten with the factors and owned by the returned LU. Use it when a
// is a freshly built scratch matrix (e.g. the half path's real per-shift
// SMW capacitance).
func LUFactorInPlace(a *Dense) (*LU, error) {
	return luFactor(a)
}

func luFactor(lu *Dense) (*LU, error) {
	if lu.Rows != lu.Cols {
		panic(fmt.Sprintf("mat: LU of non-square %d×%d matrix", lu.Rows, lu.Cols))
	}
	n := lu.Rows
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	sign := 1
	for k := 0; k < n; k++ {
		// Pivot search.
		p := k
		mx := math.Abs(lu.At(k, k))
		for i := k + 1; i < n; i++ {
			if a := math.Abs(lu.At(i, k)); a > mx {
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
	return &LU{lu: lu, piv: piv, sign: sign}, nil
}

// Solve solves A·x = b and returns x.
func (f *LU) Solve(b []float64) []float64 {
	n := f.lu.Rows
	if len(b) != n {
		panic(fmt.Sprintf("mat: LU solve dimension mismatch %d vs %d", len(b), n))
	}
	x := make([]float64, n)
	// Apply permutation.
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution with unit-lower L.
	for i := 1; i < n; i++ {
		ri := f.lu.Row(i)
		var s float64
		for j := 0; j < i; j++ {
			s += ri[j] * x[j]
		}
		x[i] -= s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		ri := f.lu.Row(i)
		var s float64
		for j := i + 1; j < n; j++ {
			s += ri[j] * x[j]
		}
		x[i] = (x[i] - s) / ri[i]
	}
	return x
}

// SolveIntoScratch solves A·x = b, writing the solution into dst (len n)
// with a caller-provided permutation gather buffer (len ≥ n). dst and b may
// alias. It only reads the factorization, so any number of goroutines may
// solve against the same LU concurrently as long as each brings its own
// scratch; the half path's shift-invert operator passes its pooled apply
// scratch, so its solves never allocate.
func (f *LU) SolveIntoScratch(dst, b, scratch []float64) {
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
	for i := 1; i < n; i++ {
		ri := f.lu.Row(i)
		var s float64
		for j := 0; j < i; j++ {
			s += ri[j] * dst[j]
		}
		dst[i] -= s
	}
	for i := n - 1; i >= 0; i-- {
		ri := f.lu.Row(i)
		var s float64
		for j := i + 1; j < n; j++ {
			s += ri[j] * dst[j]
		}
		dst[i] = (dst[i] - s) / ri[i]
	}
}

// SolveMat solves A·X = B column-by-column and returns X.
func (f *LU) SolveMat(b *Dense) *Dense {
	n := f.lu.Rows
	if b.Rows != n {
		panic(fmt.Sprintf("mat: LU solve dimension mismatch %d vs %d", b.Rows, n))
	}
	x := NewDense(n, b.Cols)
	col := make([]float64, n)
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
func (f *LU) Det() float64 {
	d := float64(f.sign)
	n := f.lu.Rows
	for i := 0; i < n; i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// Inverse returns A⁻¹ for the square matrix a.
func Inverse(a *Dense) (*Dense, error) {
	f, err := LUFactor(a)
	if err != nil {
		return nil, err
	}
	return f.SolveMat(Eye(a.Rows)), nil
}

// SolveDense solves A·X = B directly (convenience wrapper).
func SolveDense(a, b *Dense) (*Dense, error) {
	f, err := LUFactor(a)
	if err != nil {
		return nil, err
	}
	return f.SolveMat(b), nil
}
