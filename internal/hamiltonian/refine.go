package hamiltonian

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/mat"
)

// RefineEig polishes an approximate Hamiltonian eigenvalue by fixed-shift
// inverse iteration with the structured O(n·p) shift-invert operator,
// followed by a Rayleigh-quotient evaluation. Because the initial estimate
// is already close, a handful of iterations reaches the limiting accuracy
// of the factorization; the cost is one SMW setup plus `iters` applies.
//
// Returns the refined eigenvalue and the final residual ‖M·v − λ·v‖.
func (op *Op) RefineEig(lambda complex128, iters int) (complex128, float64, error) {
	if iters <= 0 {
		iters = 6
	}
	dim := op.Dim()
	// Offset the shift slightly so (M − ϑI) stays comfortably invertible.
	scale := cmplx.Abs(lambda)
	if scale == 0 {
		scale = 1
	}
	offset := complex(1e-8*scale, 1e-8*scale)
	so, err := op.ShiftInvert(lambda + offset)
	if err != nil {
		// Extremely unlucky: the offset shift is also an eigenvalue. Use a
		// larger offset once.
		so, err = op.ShiftInvert(lambda + 100*offset)
		if err != nil {
			return 0, 0, err
		}
	}
	// Deterministic start vector.
	v := make([]complex128, dim)
	st := uint64(0x243f6a8885a308d3)
	for i := range v {
		st = st*6364136223846793005 + 1442695040888963407
		v[i] = complex(float64(st>>40)/float64(1<<24)-0.5, float64(st>>33&0xffffff)/float64(1<<24)-0.5)
	}
	mat.CScaleVec(complex(1/mat.CNorm2(v), 0), v)
	w := make([]complex128, dim)
	iterate := func(s *ShiftOp, steps int) error {
		for it := 0; it < steps; it++ {
			if err := s.Apply(w, v); err != nil {
				return err
			}
			nrm := mat.CNorm2(w)
			if nrm == 0 || math.IsNaN(nrm) || math.IsInf(nrm, 0) {
				return nil
			}
			mat.CScaleVec(complex(1/nrm, 0), w)
			v, w = w, v
		}
		return nil
	}
	rayleigh := func() complex128 {
		op.Apply(w, v)
		return mat.CDot(v, w)
	}
	if err := iterate(so, iters); err != nil {
		return 0, 0, err
	}
	mu := rayleigh()
	// Second stage: one Rayleigh-quotient restart. Re-factoring at the
	// refined estimate pushes the accuracy from ~|offset| down to the
	// factorization noise floor, which lets callers deduplicate crossings
	// with a window far below genuine narrow-band widths.
	if so2, err := op.ShiftInvert(mu + offset/1e4); err == nil {
		if err := iterate(so2, 3); err != nil {
			return 0, 0, err
		}
		mu = rayleigh()
	}
	// Residual of the final pair (w currently holds M·v before the dot;
	// recompute cleanly).
	op.Apply(w, v)
	mat.CAxpy(-mu, v, w)
	return mu, mat.CNorm2(w), nil
}

// ClassifyImag reports whether a (refined) eigenvalue is purely imaginary
// within the relative tolerance axisTol·max(|Im λ|, floor).
func ClassifyImag(lambda complex128, axisTol, floor float64) bool {
	ref := math.Abs(imag(lambda))
	if ref < floor {
		ref = floor
	}
	return math.Abs(real(lambda)) <= axisTol*ref
}

// ClassifyImagWithResidual is ClassifyImag extended with the refinement's
// own error bar: for ill-conditioned eigenvalues the refined real part can
// carry an error comparable to the final residual, so a real part hidden
// below ~10× the residual cannot be distinguished from zero and counts as
// imaginary. (A λ_min sign change in the underlying passivity margin forces
// an exactly imaginary eigenvalue, so under-rejecting is the safe side.)
func ClassifyImagWithResidual(lambda complex128, resid, axisTol, floor float64) bool {
	if ClassifyImag(lambda, axisTol, floor) {
		return true
	}
	return math.Abs(real(lambda)) <= 10*resid
}

// IsCrossing decides whether ω is a true passivity-boundary frequency by
// the defining physical test rather than by eigenvalue classification
// (which is unreliable for ill-conditioned Hamiltonian eigenvalues):
//
//   - scattering: some σ_i(H(jω)) equals 1 within tol;
//   - immittance: some eigenvalue of H(jω)+H(jω)ᴴ equals 0 within
//     tol·‖H+Hᴴ‖.
//
// By the Hamiltonian correspondence this test is exact: it accepts ω iff
// jω is (numerically) an eigenvalue of M. Pass tol = 0 for the default
// 1e-6.
func (op *Op) IsCrossing(omega float64, tol float64) (bool, error) {
	if tol == 0 {
		tol = 1e-6
	}
	h := op.Model.EvalJW(omega)
	switch op.Rep {
	case Scattering:
		sv, err := mat.SingularValues(h)
		if err != nil {
			return false, err
		}
		for _, s := range sv {
			if math.Abs(s-1) <= tol {
				return true, nil
			}
		}
		return false, nil
	case Immittance:
		g := h.Add(h.H())
		vals, err := mat.CEigValues(g)
		if err != nil {
			return false, err
		}
		scale := g.FrobNorm()
		if scale < 1 {
			scale = 1
		}
		for _, v := range vals {
			if math.Abs(real(v)) <= tol*scale {
				return true, nil
			}
		}
		return false, nil
	default:
		return false, fmt.Errorf("hamiltonian: unknown representation %v", op.Rep)
	}
}
