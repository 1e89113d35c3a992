package statespace

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/mat"
)

// randModel builds a random structured model with a mix of real poles and
// complex pairs, exercising every packed-kernel layout case (columns with
// only 1×1 blocks, only 2×2 blocks, and both).
func randModel(rng *rand.Rand, p int) *Model {
	m := &Model{P: p, D: mat.NewDense(p, p), Cols: make([]Column, p)}
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			m.D.Set(i, j, 0.1*rng.NormFloat64())
		}
	}
	for k := 0; k < p; k++ {
		nb := 1 + rng.Intn(4)
		col := &m.Cols[k]
		for b := 0; b < nb; b++ {
			blk := Block{Sigma: -0.1 - 2*rng.Float64(), B1: rng.NormFloat64()}
			if rng.Intn(2) == 0 {
				blk.Size = 1
			} else {
				blk.Size = 2
				blk.Omega = 0.5 + 3*rng.Float64()
				blk.B2 = rng.NormFloat64()
			}
			col.Blocks = append(col.Blocks, blk)
		}
		mOrd := col.Order()
		col.C = mat.NewDense(p, mOrd)
		for i := 0; i < p; i++ {
			for j := 0; j < mOrd; j++ {
				col.C.Set(i, j, rng.NormFloat64())
			}
		}
	}
	return m
}

func maxAbsDiff(a, b []complex128) float64 {
	var mx float64
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > mx {
			mx = d
		}
	}
	return mx
}

func vecScale(a []complex128) float64 {
	s := 1.0
	for _, v := range a {
		if d := cmplx.Abs(v); d > s {
			s = d
		}
	}
	return s
}

// TestPackedKernelEquivalence property-checks every packed kernel against
// the dense DenseA/DenseB/DenseC reference realization on randomized
// models with mixed real/complex pole content, p = 1…8, to 1e-12.
func TestPackedKernelEquivalence(t *testing.T) {
	const tol = 1e-12
	rng := rand.New(rand.NewSource(99))
	for p := 1; p <= 8; p++ {
		for trial := 0; trial < 4; trial++ {
			t.Run(fmt.Sprintf("p%d/trial%d", p, trial), func(t *testing.T) {
				m := randModel(rng, p)
				if err := m.Validate(); err != nil {
					t.Fatal(err)
				}
				n := m.Order()
				a := m.DenseA().ToComplex()
				bD := m.DenseB().ToComplex()
				cD := m.DenseC().ToComplex()

				x := make([]complex128, n)
				for i := range x {
					x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				u := make([]complex128, p)
				for i := range u {
					u[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				theta := complex(0.3*rng.NormFloat64(), 1+rng.Float64())

				y := make([]complex128, n)
				m.CApplyA(y, x)
				if d := maxAbsDiff(y, a.MulVec(x)); d > tol*vecScale(x) {
					t.Fatalf("CApplyA mismatch %g", d)
				}
				m.CApplyAT(y, x)
				if d := maxAbsDiff(y, a.T().MulVec(x)); d > tol*vecScale(x) {
					t.Fatalf("CApplyAT mismatch %g", d)
				}
				m.CApplyB(y, u)
				if d := maxAbsDiff(y, bD.MulVec(u)); d > tol*vecScale(u) {
					t.Fatalf("CApplyB mismatch %g", d)
				}
				yp := make([]complex128, p)
				m.CApplyBT(yp, x)
				if d := maxAbsDiff(yp, bD.T().MulVec(x)); d > tol*vecScale(x) {
					t.Fatalf("CApplyBT mismatch %g", d)
				}
				m.CApplyC(yp, x)
				want := cD.MulVec(x)
				if d := maxAbsDiff(yp, want); d > tol*vecScale(want) {
					t.Fatalf("CApplyC mismatch %g", d)
				}
				m.CApplyCT(y, u)
				want = cD.T().MulVec(u)
				if d := maxAbsDiff(y, want); d > tol*vecScale(want) {
					t.Fatalf("CApplyCT mismatch %g", d)
				}

				// Shifted solves against a dense complex LU of (A − θI).
				shifted := a.Clone()
				for i := 0; i < n; i++ {
					shifted.Set(i, i, shifted.At(i, i)-theta)
				}
				f, err := mat.CLUFactor(shifted)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.CSolveShiftedA(y, x, theta); err != nil {
					t.Fatal(err)
				}
				want = f.Solve(x)
				if d := maxAbsDiff(y, want); d > tol*vecScale(want) {
					t.Fatalf("CSolveShiftedA mismatch %g", d)
				}
				shiftedT := a.T()
				for i := 0; i < n; i++ {
					shiftedT.Set(i, i, shiftedT.At(i, i)-theta)
				}
				ft, err := mat.CLUFactor(shiftedT)
				if err != nil {
					t.Fatal(err)
				}
				if err := m.CSolveShiftedAT(y, x, theta); err != nil {
					t.Fatal(err)
				}
				want = ft.Solve(x)
				if d := maxAbsDiff(y, want); d > tol*vecScale(want) {
					t.Fatalf("CSolveShiftedAT mismatch %g", d)
				}

				// SMW panels: X1 = C·(A−θI)⁻¹·B and X2 = Bᵀ·(Aᵀ−θI)⁻¹·Cᵀ.
				x1 := make([]complex128, p*p)
				if err := m.CResolventB(x1, theta); err != nil {
					t.Fatal(err)
				}
				x1want := cD.Mul(f.SolveMat(bD))
				if d := maxAbsDiff(x1, x1want.Data); d > tol*vecScale(x1want.Data) {
					t.Fatalf("CResolventB mismatch %g", d)
				}
				x2 := make([]complex128, p*p)
				if err := m.BTResolventCT(x2, theta); err != nil {
					t.Fatal(err)
				}
				x2want := bD.T().Mul(ft.SolveMat(cD.T()))
				if d := maxAbsDiff(x2, x2want.Data); d > tol*vecScale(x2want.Data) {
					t.Fatalf("BTResolventCT mismatch %g", d)
				}
			})
		}
	}
}

// TestPackedCacheInvalidation verifies that mutating residues in place and
// calling InvalidateKernels picks up the new coefficients.
func TestPackedCacheInvalidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randModel(rng, 3)
	n := m.Order()
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	y := make([]complex128, m.P)
	m.CApplyC(y, x) // builds the cache
	m.Cols[0].C.Set(0, 0, m.Cols[0].C.At(0, 0)+1)
	m.InvalidateKernels()
	m.CApplyC(y, x)
	want := m.DenseC().ToComplex().MulVec(x)
	if d := maxAbsDiff(y, want); d > 1e-12*vecScale(want) {
		t.Fatalf("stale kernel cache after InvalidateKernels: %g", d)
	}
}

// TestCApplyBlockedMatchesRows: the four-row passes of CApplyC and the
// four-state passes of CApplyCT reproduce a row-at-a-time loop bit for bit,
// for port counts below, at and past the block width and state counts not
// divisible by four.
func TestCApplyBlockedMatchesRows(t *testing.T) {
	rowDot := func(row []float64, x []complex128) complex128 {
		var re, im float64
		for j, c := range row {
			re += c * real(x[j])
			im += c * imag(x[j])
		}
		return complex(re, im)
	}
	for _, p := range []int{1, 2, 3, 5, 56} {
		rng := rand.New(rand.NewSource(int64(p)))
		m := randModel(rng, p)
		for m.Order()%4 == 0 {
			m = randModel(rng, p)
		}
		storePack(m, BackendPackedDense)
		pk := m.packKernels()
		n := pk.n
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		u := make([]complex128, p)
		for i := range u {
			u[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		y := make([]complex128, p)
		m.CApplyC(y, x)
		for i := range y {
			if want := rowDot(pk.c[i*n:(i+1)*n], x); !sameComplexBits(y[i], want) {
				t.Fatalf("p=%d n=%d: CApplyC row %d = %v, row loop %v", p, n, i, y[i], want)
			}
		}
		yt := make([]complex128, n)
		m.CApplyCT(yt, u)
		for j := range yt {
			if want := rowDot(pk.ct[j*p:(j+1)*p], u); !sameComplexBits(yt[j], want) {
				t.Fatalf("p=%d n=%d: CApplyCT state %d = %v, row loop %v", p, n, j, yt[j], want)
			}
		}
	}
}

func sameComplexBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}
