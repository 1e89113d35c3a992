// Package mat provides the dense linear-algebra substrate used by the
// Hamiltonian eigensolver: one dense matrix type and one LU factorization
// for both scalar fields, QR factorization, Hessenberg reduction, a
// shifted-QR eigensolver, and a Golub–Kahan–Reinsch SVD. Everything is
// implemented on top of the standard library only.
//
// Conventions:
//   - Matrices are stored row-major in a flat slice. Matrix[T] is generic
//     over Scalar (float64 or complex128); Dense and CDense name its two
//     instantiations, LU and CLU those of PLU.
//   - Where the fields differ (moduli, conjugation, conversions, printing)
//     a method switches on the element type once per call, never per
//     element, so each field runs the same loop it would as hand-written
//     code.
//   - Dimension mismatches are programmer errors and panic.
//   - Numerical failures (singularity, non-convergence) return errors.
//
// Invariants: factorizations never alias their input unless the name says
// so (LUFactorInPlace, CLUFactorInPlace) and are immutable once factored;
// accumulation orders are fixed, so every routine is bit-deterministic for
// identical inputs — the property the scheduler layers above rely on for
// cross-thread-count reproducibility.
//
// Concurrency: the package has no global state and does no internal
// locking. Distinct matrices/vectors may be used from distinct goroutines
// freely; sharing one object concurrently is the caller's responsibility
// (the pool layers only ever share read-only operands).
package mat

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Scalar is the field a matrix or factorization lives in.
type Scalar interface{ float64 | complex128 }

// Matrix is a dense matrix over T stored in row-major order.
type Matrix[T Scalar] struct {
	Rows, Cols int
	Data       []T // len == Rows*Cols
}

// Dense is a real matrix, CDense a complex one.
type (
	Dense  = Matrix[float64]
	CDense = Matrix[complex128]
)

// NewDense returns a zero-initialized Rows×Cols real matrix.
func NewDense(rows, cols int) *Dense { return newMatrix[float64](rows, cols) }

// NewCDense returns a zero-initialized Rows×Cols complex matrix.
func NewCDense(rows, cols int) *CDense { return newMatrix[complex128](rows, cols) }

// DenseFromSlice wraps the given row-major data. The slice is used directly,
// not copied; its length must be rows*cols.
func DenseFromSlice(rows, cols int, data []float64) *Dense { return fromSlice(rows, cols, data) }

// CDenseFromSlice wraps the given row-major data (not copied).
func CDenseFromSlice(rows, cols int, data []complex128) *CDense { return fromSlice(rows, cols, data) }

// Eye returns the n×n identity matrix.
func Eye(n int) *Dense { return eye[float64](n) }

// CEye returns the n×n complex identity matrix.
func CEye(n int) *CDense { return eye[complex128](n) }

func newMatrix[T Scalar](rows, cols int) *Matrix[T] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", rows, cols))
	}
	return &Matrix[T]{Rows: rows, Cols: cols, Data: make([]T, rows*cols)}
}

func fromSlice[T Scalar](rows, cols int, data []T) *Matrix[T] {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d != %d×%d", len(data), rows, cols))
	}
	return &Matrix[T]{Rows: rows, Cols: cols, Data: data}
}

func eye[T Scalar](n int) *Matrix[T] {
	m := newMatrix[T](n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// absFunc returns the modulus of the field: math.Abs or cmplx.Abs.
func absFunc[T Scalar]() func(T) float64 {
	var f any = math.Abs
	if _, ok := any(T(0)).(complex128); ok {
		f = cmplx.Abs
	}
	return f.(func(T) float64)
}

// At returns element (i, j).
func (m *Matrix[T]) At(i, j int) T { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix[T]) Set(i, j int, v T) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared backing array).
func (m *Matrix[T]) Row(i int) []T { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix[T]) Clone() *Matrix[T] {
	c := newMatrix[T](m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the plain (unconjugated) transpose of m as a new matrix.
func (m *Matrix[T]) T() *Matrix[T] {
	t := newMatrix[T](m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// H returns the conjugate transpose of m as a new matrix (the transpose
// for a real m).
func (m *Matrix[T]) H() *Matrix[T] {
	d, ok := any(m.Data).([]complex128)
	if !ok {
		return m.T()
	}
	t := NewCDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = cmplx.Conj(d[i*m.Cols+j])
		}
	}
	return any(t).(*Matrix[T])
}

// Add returns m + b.
func (m *Matrix[T]) Add(b *Matrix[T]) *Matrix[T] {
	m.assertSameShape(b)
	c := newMatrix[T](m.Rows, m.Cols)
	for i := range m.Data {
		c.Data[i] = m.Data[i] + b.Data[i]
	}
	return c
}

// Sub returns m − b.
func (m *Matrix[T]) Sub(b *Matrix[T]) *Matrix[T] {
	m.assertSameShape(b)
	c := newMatrix[T](m.Rows, m.Cols)
	for i := range m.Data {
		c.Data[i] = m.Data[i] - b.Data[i]
	}
	return c
}

// Scale returns s·m.
func (m *Matrix[T]) Scale(s T) *Matrix[T] {
	c := newMatrix[T](m.Rows, m.Cols)
	for i := range m.Data {
		c.Data[i] = s * m.Data[i]
	}
	return c
}

// Mul returns the matrix product m·b.
func (m *Matrix[T]) Mul(b *Matrix[T]) *Matrix[T] {
	if m.Cols != b.Rows {
		panic(fmt.Sprintf("mat: dimension mismatch %d×%d · %d×%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	c := newMatrix[T](m.Rows, b.Cols)
	// ikj loop order: stream over rows of b for cache friendliness.
	for i := 0; i < m.Rows; i++ {
		ci := c.Data[i*c.Cols : (i+1)*c.Cols]
		for k := 0; k < m.Cols; k++ {
			a := m.Data[i*m.Cols+k]
			if a == 0 {
				continue
			}
			bk := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range bk {
				ci[j] += a * bv
			}
		}
	}
	return c
}

// MulVec returns the matrix-vector product m·x.
func (m *Matrix[T]) MulVec(x []T) []T {
	if m.Cols != len(x) {
		panic(fmt.Sprintf("mat: dimension mismatch %d×%d · vec(%d)", m.Rows, m.Cols, len(x)))
	}
	y := make([]T, m.Rows)
	for i := 0; i < m.Rows; i++ {
		ri := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s T
		for j, v := range ri {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// MulVecT returns mᵀ·x (unconjugated) without forming the transpose.
func (m *Matrix[T]) MulVecT(x []T) []T {
	if m.Rows != len(x) {
		panic(fmt.Sprintf("mat: dimension mismatch %d×%dᵀ · vec(%d)", m.Rows, m.Cols, len(x)))
	}
	y := make([]T, m.Cols)
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		ri := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range ri {
			y[j] += v * xi
		}
	}
	return y
}

// MaxAbs returns the largest entry modulus of m (0 for an empty matrix).
func (m *Matrix[T]) MaxAbs() float64 {
	abs := absFunc[T]()
	var mx float64
	for _, v := range m.Data {
		if a := abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// FrobNorm returns the Frobenius norm of m.
func (m *Matrix[T]) FrobNorm() float64 {
	var s float64
	switch d := any(m.Data).(type) {
	case []float64:
		for _, v := range d {
			s += v * v
		}
	case []complex128:
		for _, v := range d {
			s += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	return math.Sqrt(s)
}

// Equalish reports whether m and b agree entrywise within tol (in modulus).
func (m *Matrix[T]) Equalish(b *Matrix[T], tol float64) bool {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		return false
	}
	abs := absFunc[T]()
	for i := range m.Data {
		if abs(m.Data[i]-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

// ToComplex returns m as a complex matrix (zero imaginary parts for a real
// m, a copy for a complex one).
func (m *Matrix[T]) ToComplex() *CDense {
	c := NewCDense(m.Rows, m.Cols)
	switch d := any(m.Data).(type) {
	case []float64:
		for i, v := range d {
			c.Data[i] = complex(v, 0)
		}
	case []complex128:
		copy(c.Data, d)
	}
	return c
}

// Real returns the real part of m as a real matrix.
func (m *Matrix[T]) Real() *Dense {
	r := NewDense(m.Rows, m.Cols)
	switch d := any(m.Data).(type) {
	case []float64:
		copy(r.Data, d)
	case []complex128:
		for i, v := range d {
			r.Data[i] = real(v)
		}
	}
	return r
}

// String renders the matrix for debugging.
func (m *Matrix[T]) String() string {
	var sb strings.Builder
	var cell func(k int)
	switch d := any(m.Data).(type) {
	case []float64:
		cell = func(k int) { fmt.Fprintf(&sb, "% .4e ", d[k]) }
	case []complex128:
		cell = func(k int) { fmt.Fprintf(&sb, "(% .3e%+.3ei) ", real(d[k]), imag(d[k])) }
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			cell(i*m.Cols + j)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func (m *Matrix[T]) assertSameShape(b *Matrix[T]) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("mat: shape mismatch %d×%d vs %d×%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
}
