package hamiltonian

import (
	"errors"
	"fmt"

	"repro/internal/mat"
)

// Half-size Hamiltonian path for reciprocal (symmetric) macromodels.
//
// A reciprocal model (H(s) = H(s)ᵀ) admits a symmetric state similarity T
// with Aᵀ = T·A·T⁻¹ and Cᵀ = T·B. Conjugating the Hamiltonian
// M = [A − B·W₁₁·C …] by blkdiag(I, T⁻¹) and then by the half-sum/half-
// difference similarity [I I; I −I]/2 turns it into an anti-block-diagonal
// matrix [0, P̃; Q̃, 0] with
//
//	P̃ = A + B·Wp·C,  Q̃ = A + B·Wq·C,
//
// where the p×p couplings are representation-dependent:
//
//	scattering: Wp = −(I+D)⁻¹, Wq = (I−D)⁻¹
//	immittance: Wp = 0,        Wq = −D⁻¹
//
// (T itself drops out of the final formulas; only its existence is used).
// Consequently spec(M)² = spec(N) for the n×n product
//
//	N = Q̃·P̃ = A² + U·V,  U = [A·B | B],  V = [Wp·C ; Wq·(C·A + (C·B)·Wp·C)]
//
// and a purely imaginary Hamiltonian eigenvalue λ = jω corresponds to the
// real negative eigenvalue μ = −ω² of N. The multi-shift sweep can
// therefore run shift-invert Arnoldi on (N − τI)⁻¹ with τ = −ω²: same
// crossing semantics, half the vector length — which halves the dominant
// orthogonalization cost of every sweep — and an SMW setup of the same
// O(n·p) shape built from the squared-A kernels in statespace.
//
// Moreover τ and N are both REAL, so the whole iteration runs in real
// arithmetic: real Krylov vectors (arnoldi.SingleShiftReal), real SMW
// capacitance with a real LU, real applies. Against a complex iteration on
// the same operator that halves the flops and memory traffic again — the
// complex lanes would just carry a redundant copy of the same real data.
//
// The λ ↔ μ mapping (shift, radius, residual) lives in core, which owns
// the sweep geometry; this file owns the operator. Refinement, crossing
// arbitration and ω_max estimation stay on the full-size operator — the
// half path accelerates only the sweep.

// newHalfCoupling precomputes the half-size coupling V of the operator's
// (balanced) model and representation, stored transposed (n×2p row-major)
// so the block-local panel kernels and the V apply stream one contiguous
// 2p-row per state. O(p²·n) one-time work.
func newHalfCoupling(op *Op) ([]float64, error) {
	m := op.Model
	p, n := op.P, op.N
	var wp, wq *mat.Dense
	switch op.Rep {
	case Scattering:
		ipd, err := mat.Inverse(mat.Eye(p).Add(m.D))
		if err != nil {
			return nil, fmt.Errorf("hamiltonian: half path: I+D singular: %w", err)
		}
		imd, err := mat.Inverse(mat.Eye(p).Sub(m.D))
		if err != nil {
			return nil, fmt.Errorf("hamiltonian: half path: I−D singular: %w", err)
		}
		wp = ipd.Scale(-1)
		wq = imd
	case Immittance:
		dinv, err := mat.Inverse(m.D)
		if err != nil {
			return nil, fmt.Errorf("hamiltonian: half path: D singular: %w", err)
		}
		wp = mat.NewDense(p, p)
		wq = dinv.Scale(-1)
	default:
		return nil, fmt.Errorf("hamiltonian: unknown representation %v", op.Rep)
	}
	cd := m.DenseC()
	// C·A via the block structure of A, O(n·p).
	ca := mat.NewDense(p, n)
	off := 0
	for k := range m.Cols {
		col := &m.Cols[k]
		for _, b := range col.Blocks {
			if b.Size == 1 {
				for i := 0; i < p; i++ {
					ca.Set(i, off, cd.At(i, off)*b.Sigma)
				}
			} else {
				for i := 0; i < p; i++ {
					c1, c2 := cd.At(i, off), cd.At(i, off+1)
					ca.Set(i, off, c1*b.Sigma-c2*b.Omega)
					ca.Set(i, off+1, c1*b.Omega+c2*b.Sigma)
				}
			}
			off += b.Size
		}
	}
	wpc := wp.Mul(cd) // p×n
	// C·B is p×p and block-local; assembled densely once.
	cb := cd.Mul(m.DenseB())
	row2 := wq.Mul(ca.Add(cb.Mul(wpc)))
	q := 2 * p
	vt := make([]float64, n*q)
	for j := 0; j < n; j++ {
		for i := 0; i < p; i++ {
			vt[j*q+i] = wpc.At(i, j)
			vt[j*q+p+i] = row2.At(i, j)
		}
	}
	return vt, nil
}

// HalfPath reports whether the operator carries the half-size reciprocal
// path (N = A² + U·V on n states).
func (op *Op) HalfPath() bool { return op.vt != nil }

// applyHalfV computes t = V·x, t ∈ R^{2p}, streaming vt state-major with
// one fixed accumulation order (deterministic for any caller).
func (op *Op) applyHalfV(t, x []float64) {
	mat.MulVecTrans(t[:2*op.P], op.vt, x[:op.N])
}

// ShiftInvertHalf factors (N − τI)⁻¹ via the same SMW identity as the full
// path: Gτ − Gτ·U·(I + V·Gτ·U)⁻¹·V·Gτ with Gτ = (A² − τI)⁻¹ block
// diagonal. The operator must carry the half path (HalfPath) and the shift
// τ must be real (the sweep's τ = −ω² always is); factorization and
// applies then run entirely in real arithmetic. Every call factors its
// shift afresh and the returned operator owns the factor and its scratch.
func (op *Op) ShiftInvertHalf(tau complex128) (*HalfShiftOp, error) {
	if op.vt == nil {
		return nil, errors.New("hamiltonian: operator has no half path")
	}
	if imag(tau) != 0 {
		return nil, fmt.Errorf("hamiltonian: half shift %v must be real", tau)
	}
	// The capacitance I + V·Gτ·U: the panel kernel writes V·Gτ·U straight
	// into the 2p×2p matrix, which is then factored in place.
	q := 2 * op.P
	capm := mat.NewDense(q, q)
	if err := op.Model.RResolventA2BPair(capm.Data, op.vt, q, real(tau)); err != nil {
		return nil, fmt.Errorf("hamiltonian: half shift %v hits a pole: %w", tau, err)
	}
	for i := 0; i < q; i++ {
		capm.Row(i)[i]++
	}
	lu, err := mat.LUFactorInPlace(capm)
	if err != nil {
		return nil, fmt.Errorf("hamiltonian: half shift %v is (numerically) an eigenvalue: %w", tau, err)
	}
	n := op.N
	buf := make([]float64, 2*n+2*q)
	return &HalfShiftOp{
		op:      op,
		tau:     tau,
		lu:      lu,
		g:       buf[:n],
		gu:      buf[n : 2*n],
		s:       buf[2*n : 2*n+q],
		permBuf: buf[2*n+q:],
	}, nil
}

// HalfShiftOp is the half-size shift-invert operator (N − τI)⁻¹ for one
// real shift τ: the shift, its real LU-factored 2p×2p SMW capacitance
// I + V·Gτ·U and private apply scratch. All vectors are real. Like ShiftOp
// it is single-goroutine.
type HalfShiftOp struct {
	op  *Op
	tau complex128
	lu  *mat.LU
	// scratch
	g, gu   []float64 // n
	s       []float64 // 2p
	permBuf []float64 // 2p
}

// Theta returns the shift τ (in μ = λ² space).
func (so *HalfShiftOp) Theta() complex128 { return so.tau }

// Dim returns the half-size dimension n.
func (so *HalfShiftOp) Dim() int { return so.op.N }

// Apply computes y = (N − τI)⁻¹·x on real vectors. x and y have length n
// and may alias.
func (so *HalfShiftOp) Apply(y, x []float64) error {
	op := so.op
	n, p := op.N, op.P
	if len(x) != n || len(y) != n {
		panic(fmt.Sprintf("hamiltonian: HalfShiftOp.Apply expects vectors of length %d", n))
	}
	tau := real(so.tau)
	m := op.Model
	if err := m.RSolveShiftedA2(so.g, x, tau); err != nil {
		return err
	}
	op.applyHalfV(so.s, so.g)
	so.lu.SolveIntoScratch(so.s, so.s, so.permBuf)
	m.RApplyABPair(so.gu, so.s[:p], so.s[p:])
	if err := m.RSolveShiftedA2(so.gu, so.gu, tau); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		y[i] = so.g[i] - so.gu[i]
	}
	return nil
}

// ApplyBase applies the non-inverted half operator: y = N·x = A²·x +
// U·(V·x), letting the Arnoldi layer measure eigenpair residuals in N
// (they map to λ-space error bars in core).
func (so *HalfShiftOp) ApplyBase(y, x []float64) error {
	op := so.op
	p := op.P
	m := op.Model
	m.RApplyA2(y, x)
	op.applyHalfV(so.s, x)
	m.RApplyABPair(so.gu, so.s[:p], so.s[p:])
	for i := range y {
		y[i] += so.gu[i]
	}
	return nil
}
