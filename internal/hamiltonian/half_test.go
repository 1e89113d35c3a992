package hamiltonian

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"repro/internal/mat"
	"repro/internal/statespace"
)

// reciprocalModel generates a reciprocal test model (symmetric H).
func reciprocalModel(t *testing.T, seed int64, ports, order int, peak float64) *statespace.Model {
	t.Helper()
	m, err := statespace.Generate(seed, statespace.GenOptions{
		Ports: ports, Order: order, TargetPeak: peak, GridPoints: 80,
		Reciprocal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Reciprocal(0) {
		t.Fatal("generated model is not bit-exactly reciprocal")
	}
	return m
}

// denseHalfN assembles N = Q̃·P̃ = (A + B·Wq·C)·(A + B·Wp·C) directly from
// the operator's balanced model — an independent realization of the
// half-size derivation to validate the kernel path against.
func denseHalfN(t *testing.T, op *Op) *mat.Dense {
	t.Helper()
	m := op.Model
	p := op.P
	var wp, wq *mat.Dense
	switch op.Rep {
	case Scattering:
		ipd, err := mat.Inverse(mat.Eye(p).Add(m.D))
		if err != nil {
			t.Fatal(err)
		}
		imd, err := mat.Inverse(mat.Eye(p).Sub(m.D))
		if err != nil {
			t.Fatal(err)
		}
		wp, wq = ipd.Scale(-1), imd
	case Immittance:
		dinv, err := mat.Inverse(m.D)
		if err != nil {
			t.Fatal(err)
		}
		wp, wq = mat.NewDense(p, p), dinv.Scale(-1)
	}
	a, b, c := m.DenseA(), m.DenseB(), m.DenseC()
	pt := a.Add(b.Mul(wp).Mul(c)) // P̃
	qt := a.Add(b.Mul(wq).Mul(c)) // Q̃
	return qt.Mul(pt)
}

// TestHalfSpectrumIsSquaredHamiltonianSpectrum validates the core identity
// spec(M)² = spec(N) on dense eigendecompositions, for both
// representations.
func TestHalfSpectrumIsSquaredHamiltonianSpectrum(t *testing.T) {
	for _, rep := range []Representation{Scattering, Immittance} {
		m := reciprocalModel(t, 31, 3, 18, 1.05)
		if rep == Immittance {
			// Make D symmetric positive definite so D and D+Dᵀ are
			// comfortably invertible.
			m.D = m.D.Add(m.D.T()).Scale(0.5).Add(mat.Eye(3).Scale(2))
		}
		op, err := NewWith(m, rep, NewOptions{})
		if err != nil {
			t.Fatalf("%v: %v", rep, err)
		}
		if !op.HalfPath() {
			t.Fatalf("%v: half path not engaged on a reciprocal model", rep)
		}
		mEigs, err := mat.EigValues(op.Dense())
		if err != nil {
			t.Fatal(err)
		}
		nEigs, err := mat.EigValues(denseHalfN(t, op))
		if err != nil {
			t.Fatal(err)
		}
		scale := 0.0
		for _, mu := range nEigs {
			if a := cmplx.Abs(mu); a > scale {
				scale = a
			}
		}
		tol := 1e-6 * scale
		// Every λ² from M must be an eigenvalue of N…
		for _, lam := range mEigs {
			mu := lam * lam
			best := tol + 1
			for _, nv := range nEigs {
				if d := cmplx.Abs(mu - nv); d < best {
					best = d
				}
			}
			if best > tol {
				t.Fatalf("%v: λ=%v: λ²=%v not in spec(N) (min dist %.3e, tol %.3e)", rep, lam, mu, best, tol)
			}
		}
		// …and every μ of N must be hit by some λ².
		for _, nv := range nEigs {
			best := tol + 1
			for _, lam := range mEigs {
				if d := cmplx.Abs(lam*lam - nv); d < best {
					best = d
				}
			}
			if best > tol {
				t.Fatalf("%v: μ=%v of N unmatched by any λ² (min dist %.3e)", rep, nv, best)
			}
		}
	}
}

// randRVec fills a random real vector for the half path's real applies.
func randRVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestHalfApplyBaseMatchesDense checks y = N·x from the structured real
// kernels against the independently assembled dense N.
func TestHalfApplyBaseMatchesDense(t *testing.T) {
	m := reciprocalModel(t, 32, 2, 16, 1.05)
	op, err := New(m, Scattering)
	if err != nil {
		t.Fatal(err)
	}
	if !op.HalfPath() {
		t.Fatal("half path not engaged")
	}
	nd := denseHalfN(t, op)
	so, err := op.ShiftInvertHalf(complex(-1e18, 0))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 5; trial++ {
		x := randRVec(rng, op.N)
		y := make([]float64, op.N)
		if err := so.ApplyBase(y, x); err != nil {
			t.Fatal(err)
		}
		want := nd.MulVec(x)
		scale := 0.0
		for i := range want {
			if a := math.Abs(want[i]); a > scale {
				scale = a
			}
		}
		for i := range y {
			if math.Abs(y[i]-want[i]) > 1e-8*scale {
				t.Fatalf("trial %d: ApplyBase mismatch at %d: %v vs %v", trial, i, y[i], want[i])
			}
		}
	}
}

// TestHalfShiftInvertMatchesDense checks the real SMW solve (N − τI)⁻¹·x
// against a dense LU solve for sweep-typical and general real shifts, and
// that a complex shift is rejected (the half path is real-only).
func TestHalfShiftInvertMatchesDense(t *testing.T) {
	m := reciprocalModel(t, 33, 3, 18, 1.08)
	op, err := New(m, Scattering)
	if err != nil {
		t.Fatal(err)
	}
	if !op.HalfPath() {
		t.Fatal("half path not engaged")
	}
	n := op.N
	nd := denseHalfN(t, op)
	rng := rand.New(rand.NewSource(11))
	for _, tau := range []complex128{
		op.SweepTheta(3e9, 0), op.SweepTheta(1e10, 0), complex(0, 0),
		complex(1e18, 0),
	} {
		shifted := nd.Clone()
		for i := 0; i < n; i++ {
			shifted.Set(i, i, shifted.At(i, i)-real(tau))
		}
		f, err := mat.LUFactor(shifted)
		if err != nil {
			t.Fatalf("tau %v: dense factor: %v", tau, err)
		}
		so, err := op.ShiftInvertHalf(tau)
		if err != nil {
			t.Fatalf("tau %v: %v", tau, err)
		}
		x := randRVec(rng, n)
		y := make([]float64, n)
		if err := so.Apply(y, x); err != nil {
			t.Fatal(err)
		}
		want := f.Solve(x)
		scale := 0.0
		for i := range want {
			if a := math.Abs(want[i]); a > scale {
				scale = a
			}
		}
		for i := range y {
			if math.Abs(y[i]-want[i]) > 1e-7*scale {
				t.Fatalf("tau %v: SMW mismatch at %d: %v vs %v", tau, i, y[i], want[i])
			}
		}
	}
	if _, err := op.ShiftInvertHalf(complex(1e18, -5e18)); err == nil {
		t.Fatal("complex half shift must be rejected")
	}
}

// TestHalfPathGating covers the dispatch matrix: non-reciprocal models
// (including a bit-perturbed reciprocal one) stay on the full path, a
// reciprocal model takes the half path, and the in-package newOp hook
// keeps a reciprocal model on the full path.
func TestHalfPathGating(t *testing.T) {
	nonrec := testModel(t, 35, 3, 18, 1.05)
	op, err := New(nonrec, Scattering)
	if err != nil {
		t.Fatal(err)
	}
	if op.HalfPath() {
		t.Fatal("half path engaged on a non-reciprocal model")
	}
	if _, err := op.ShiftInvertHalf(complex(-4e18, 0)); err == nil {
		t.Fatal("ShiftInvertHalf succeeded on an operator without a half path")
	}
	if th := op.SweepTheta(2e9, 1e8); th != complex(0, 2e9) {
		t.Fatalf("full-path SweepTheta = %v", th)
	}

	rec := reciprocalModel(t, 36, 2, 12, 1.05)
	op, err = newOp(rec, Scattering, false)
	if err != nil {
		t.Fatal(err)
	}
	if op.HalfPath() {
		t.Fatal("newOp(allowHalf=false) still engaged the half path")
	}

	// Perturb one residue: exact detection must fail.
	pert := rec.Clone()
	pert.Cols[0].C.Set(1, 0, pert.Cols[0].C.At(1, 0)*(1+1e-12))
	op, err = New(pert, Scattering)
	if err != nil {
		t.Fatal(err)
	}
	if op.HalfPath() {
		t.Fatal("bit-perturbed model must not pass exact detection")
	}

	op, err = New(rec, Scattering)
	if err != nil {
		t.Fatal(err)
	}
	if !op.HalfPath() {
		t.Fatal("reciprocal model did not engage the half path")
	}
	if th := op.SweepTheta(2e9, 1e8); th != complex(-4e18, 0) {
		t.Fatalf("half-path SweepTheta = %v", th)
	}
	// Near-origin disks must route to the full path even on a half-capable
	// operator: 1.6e9 ≥ HalfSafeFraction·2e9.
	if th := op.SweepTheta(2e9, 1.6e9); th != complex(0, 2e9) {
		t.Fatalf("unsafe disk routed to half path: %v", th)
	}
	if op.HalfRouted(0, 0) {
		t.Fatal("ω=0 must never route to the half path")
	}
}
