package arnoldi

import (
	"math"
	"math/rand"

	"repro/internal/mat"
)

// The real lane of the shift-invert Arnoldi, for the half-size Hamiltonian
// path. Every sweep shift there is τ = −ω² — real — and the squared
// operator N is real, so (N − τI)⁻¹ maps R^n to R^n and the Krylov basis
// can be real: half the memory traffic and half the flops per apply, MGS
// projection and reorthogonalization compared to the complex lane, whose
// imaginary parts would carry nothing new on a real operator. SingleShiftReal
// runs the same factorization loop and the same certification driver as
// SingleShift; only the lane differs. Eigenvalues of the projected (real)
// Hessenberg are still complex in general — they come in conjugate pairs —
// so the Hessenberg is kept complex and Ritz extraction shares mat.CEig,
// and deflation locks the real span {Re x, Im x} of each converged complex
// Ritz vector, which removes both pair members from the real iteration at
// once.

// RealOperator is a linear operator on R^dim. Apply computes y = Op·x; x
// and y are distinct slices of length Dim().
type RealOperator interface {
	Dim() int
	Apply(y, x []float64) error
}

// RealShiftInverter abstracts a factored real operator (N − τI)⁻¹ for real
// τ (hamiltonian.HalfShiftOp satisfies it).
type RealShiftInverter interface {
	RealOperator
	Theta() complex128
}

// RealBaseOperator is optionally implemented by a RealShiftInverter that
// can also apply the original operator N; SingleShiftReal then reports
// per-eigenvalue residuals in N.
type RealBaseOperator interface {
	ApplyBase(y, x []float64) error
}

// SingleShiftReal runs the restarted, deflated shift-invert Arnoldi
// iteration of SingleShift on a real operator, with identical parameters,
// certification rules and result semantics. inv.Theta() must be real
// (imaginary part zero); the returned Ritz values are complex as usual.
func SingleShiftReal(inv RealShiftInverter, rho0 float64, params SingleShiftParams) (*SingleShiftResult, error) {
	return singleShift[float64](realLane{inv}, inv.Theta(), rho0, params)
}

// realLane runs the iteration on R^n.
type realLane struct{ op RealOperator }

func (l realLane) dim() int                                 { return l.op.Dim() }
func (l realLane) apply(y, x []float64) error               { return l.op.Apply(y, x) }
func (realLane) projSubChain(q [][]float64, w, h []float64) { mat.ProjSubChain(q, w, h) }
func (realLane) widen(c float64) complex128                 { return complex(c, 0) }
func (realLane) norm2(w []float64) float64                  { return mat.Norm2(w) }
func (realLane) scale(a float64, w []float64)               { mat.ScaleVec(a, w) }

func (l realLane) randomStart(rng *rand.Rand) []float64 {
	v := make([]float64, l.op.Dim())
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	nrm := mat.Norm2(v)
	if nrm > 0 {
		mat.ScaleVec(1/nrm, v)
	}
	return v
}

func (realLane) lift(x []complex128, y complex128, v []float64) {
	yr, yi := real(y), imag(y)
	for a, va := range v {
		x[a] = complex(real(x[a])+yr*va, imag(x[a])+yi*va)
	}
}

// lock appends the orthonormalized real span {Re x, Im x} of a
// complex Ritz vector to the locked set. For a conjugate Ritz pair both
// members share the same real span, so the second member's parts deflate
// to (numerical) zero and are skipped — the pair costs two locked vectors
// total, exactly the two complex vectors the full path would lock. Real
// Ritz values (arbitrary complex phase) contribute one direction.
func (realLane) lock(locked [][]float64, x []complex128) [][]float64 {
	xr, xi := splitParts(x)
	for _, v := range [][]float64{xr, xi} {
		for _, u := range locked {
			mat.ProjSub(u, v)
		}
		// x has unit norm, so a genuinely new direction keeps O(1) mass;
		// 1e-6 absolute separates that from deflation residue.
		if nrm := mat.Norm2(v); nrm > 1e-6 {
			mat.ScaleVec(1/nrm, v)
			locked = append(locked, v)
		}
	}
	return locked
}

// restartDirection reduces a complex Ritz vector to a real restart
// direction: whichever of its real or imaginary part carries more mass
// (deterministic, and nonzero whenever the vector is).
func (realLane) restartDirection(x []complex128) []float64 {
	vr, vi := splitParts(x)
	if mat.Norm2(vi) > mat.Norm2(vr) {
		return vi
	}
	return vr
}

// baseResidual computes ‖N·x − μ·x‖ for a complex Ritz pair of a real
// operator via two real applies (N·Re x and N·Im x).
func (l realLane) baseResidual(mu complex128, x []complex128) float64 {
	bo, ok := l.op.(RealBaseOperator)
	if !ok {
		return 0
	}
	n := len(x)
	xr, xi := splitParts(x)
	yr := make([]float64, n)
	yi := make([]float64, n)
	if err := bo.ApplyBase(yr, xr); err != nil {
		return 0
	}
	if err := bo.ApplyBase(yi, xi); err != nil {
		return 0
	}
	mr, mi := real(mu), imag(mu)
	var ss float64
	for i := 0; i < n; i++ {
		dr := yr[i] - (mr*xr[i] - mi*xi[i])
		di := yi[i] - (mr*xi[i] + mi*xr[i])
		ss += dr*dr + di*di
	}
	return math.Sqrt(ss)
}

// splitParts returns the real and imaginary parts of x as fresh vectors.
func splitParts(x []complex128) (re, im []float64) {
	re = make([]float64, len(x))
	im = make([]float64, len(x))
	for i, z := range x {
		re[i] = real(z)
		im[i] = imag(z)
	}
	return re, im
}
