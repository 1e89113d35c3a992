package hamiltonian

import (
	"fmt"
	"math"
	"sync"

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

// HalfMode selects whether the half-size reciprocal path may be used.
type HalfMode int

const (
	// HalfAuto (default) uses the half-size path exactly when reciprocity
	// detection succeeds on the source model (exact, or within
	// NewOptions.HalfTol).
	HalfAuto HalfMode = iota
	// HalfOff always runs the full-size 2n×2n sweep.
	HalfOff
	// HalfForce asserts reciprocity without detection — the caller
	// guarantees H = Hᵀ. Forcing a non-reciprocal model produces wrong
	// sweeps; the arbiter may mask false positives but missed crossings
	// are unrecoverable.
	HalfForce
)

// String names the half mode for reports.
func (h HalfMode) String() string {
	switch h {
	case HalfAuto:
		return "auto"
	case HalfOff:
		return "off"
	case HalfForce:
		return "force"
	default:
		return "unknown"
	}
}

// NewOptions configures operator construction beyond the representation.
type NewOptions struct {
	// Half gates the half-size reciprocal path (default HalfAuto).
	Half HalfMode
	// HalfTol is the reciprocity-detection tolerance under HalfAuto:
	// 0 detects only bit-exact symmetry; a positive value admits models
	// reciprocal up to round-off (see statespace.Model.Reciprocal).
	HalfTol float64
}

// HalfOp is the half-size operator N = A² + U·V of a reciprocal model's
// Hamiltonian, sharing its parent Op's model, shift cache and stats. It is
// read-only after construction and safe for concurrent use; per-shift
// state lives in HalfShiftOp.
type HalfOp struct {
	op   *Op
	n, p int
	// id is this operator's own cache identity: half-path factors and
	// full-path factors of the same Op must never collide in a shared
	// ShiftCache.
	id uint64
	// vt is the coupling V stored transposed (n×2p row-major) so the
	// block-local panel kernels and the V apply stream one contiguous
	// 2p-row per state.
	vt []float64

	shiftPool sync.Pool
	panelPool sync.Pool
}

// newHalfOp precomputes the half-size coupling V from the parent's
// (balanced) model and representation. O(p²·n) one-time work.
func newHalfOp(op *Op) (*HalfOp, error) {
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
	return &HalfOp{op: op, n: n, p: p, id: opIDs.Add(1), vt: vt}, nil
}

// Dim returns the half-size dimension n.
func (h *HalfOp) Dim() int { return h.n }

// Op returns the parent full-size operator.
func (h *HalfOp) Op() *Op { return h.op }

// applyV computes t = V·x, t ∈ R^{2p}, streaming vt state-major with one
// fixed accumulation order (deterministic for any caller).
func (h *HalfOp) applyV(t, x []float64) {
	mat.MulVecTrans(t[:2*h.p], h.vt, x[:h.n])
}

// getHalfPanel returns a pooled 2p×2p capacitance panel buffer.
func (h *HalfOp) getHalfPanel() []float64 {
	if b, ok := h.panelPool.Get().([]float64); ok {
		return b
	}
	return make([]float64, 4*h.p*h.p)
}

// shiftKeyFor keys a half-path factorization: the HalfOp's own identity
// plus the model's kernel epoch and exact shift bits.
func (h *HalfOp) shiftKeyFor(tau complex128) shiftKey {
	return shiftKey{
		opID:  h.id,
		epoch: h.op.Model.KernelEpoch(),
		re:    math.Float64bits(real(tau)),
		im:    math.Float64bits(imag(tau)),
	}
}

// ShiftInvert factors (N − τI)⁻¹ via the same SMW identity as the full
// path: Gτ − Gτ·U·(I + V·Gτ·U)⁻¹·V·Gτ with Gτ = (A² − τI)⁻¹ block
// diagonal. The shift τ must be real (the sweep's τ = −ω² always is);
// factorization and applies then run entirely in real arithmetic. The
// attached ShiftCache (the parent Op's) is consulted first; half-path
// entries carry their own operator identity so they never mix with
// full-path factors. Callers must Release the returned operator.
func (h *HalfOp) ShiftInvert(tau complex128) (*HalfShiftOp, error) {
	if imag(tau) != 0 {
		return nil, fmt.Errorf("hamiltonian: half shift %v must be real", tau)
	}
	if c := h.op.cache.Load(); c != nil {
		return c.shiftInvertHalf(h, tau)
	}
	fac, err := h.factorShift(tau)
	if err != nil {
		return nil, err
	}
	return h.newShiftOp(fac, nil), nil
}

// factorShift runs the half-size SMW setup for one shift: the real 2p×2p
// panel V·Gτ·U in one pass over the packed kernels, then capacitance
// assembly and factorization.
func (h *HalfOp) factorShift(tau complex128) (*shiftFactor, error) {
	panel := h.getHalfPanel()
	defer h.panelPool.Put(panel)
	if err := h.op.Model.RResolventA2BPair(panel, h.vt, 2*h.p, real(tau)); err != nil {
		return nil, fmt.Errorf("hamiltonian: half shift %v hits a pole: %w", tau, err)
	}
	q := 2 * h.p
	capm := mat.NewDense(q, q)
	for i := 0; i < q; i++ {
		copy(capm.Row(i), panel[i*q:(i+1)*q])
		capm.Row(i)[i]++
	}
	f, err := mat.LUFactorInPlace(capm)
	if err != nil {
		return nil, fmt.Errorf("hamiltonian: half shift %v is (numerically) an eigenvalue: %w", tau, err)
	}
	return &shiftFactor{theta: tau, rcap: f}, nil
}

// HalfShiftOp is the half-size shift-invert operator (N − τI)⁻¹ for one
// real shift τ: a shared immutable factor plus private apply scratch. All
// vectors are real. Like ShiftOp it is single-goroutine; concurrent
// HalfShiftOps may share the factorization. Call Release when done.
type HalfShiftOp struct {
	h     *HalfOp
	fac   *shiftFactor
	entry *cacheEntry
	// scratch
	g, gu   []float64 // n
	s, t    []float64 // 2p
	permBuf []float64 // 2p
}

// newShiftOp wraps a factor in a (pooled) HalfShiftOp shell.
func (h *HalfOp) newShiftOp(fac *shiftFactor, entry *cacheEntry) *HalfShiftOp {
	if so, ok := h.shiftPool.Get().(*HalfShiftOp); ok {
		so.fac, so.entry = fac, entry
		return so
	}
	n, q := h.n, 2*h.p
	buf := make([]float64, 2*n+3*q)
	return &HalfShiftOp{
		h:       h,
		fac:     fac,
		entry:   entry,
		g:       buf[:n],
		gu:      buf[n : 2*n],
		s:       buf[2*n : 2*n+q],
		t:       buf[2*n+q : 2*n+2*q],
		permBuf: buf[2*n+2*q:],
	}
}

// Release returns the operator's scratch to the pool and unpins its cache
// entry, mirroring ShiftOp.Release.
func (so *HalfShiftOp) Release() {
	if so == nil {
		return
	}
	if so.entry != nil {
		so.entry.cache.release(so.entry)
		so.entry = nil
	}
	so.fac = nil
	so.h.shiftPool.Put(so)
}

// Theta returns the shift τ (in μ = λ² space).
func (so *HalfShiftOp) Theta() complex128 { return so.fac.theta }

// Dim returns the half-size dimension n.
func (so *HalfShiftOp) Dim() int { return so.h.n }

// Apply computes y = (N − τI)⁻¹·x on real vectors. x and y have length n
// and may alias.
func (so *HalfShiftOp) Apply(y, x []float64) error {
	h := so.h
	n := h.n
	if len(x) != n || len(y) != n {
		panic(fmt.Sprintf("hamiltonian: HalfShiftOp.Apply expects vectors of length %d", n))
	}
	tau := real(so.fac.theta)
	m := h.op.Model
	if err := m.RSolveShiftedA2(so.g, x, tau); err != nil {
		return err
	}
	h.applyV(so.s, so.g)
	so.fac.rcap.SolveIntoScratch(so.s, so.s, so.permBuf)
	m.RApplyABPair(so.gu, so.s[:h.p], so.s[h.p:])
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
	h := so.h
	m := h.op.Model
	m.RApplyA2(y, x)
	h.applyV(so.t, x)
	m.RApplyABPair(so.gu, so.t[:h.p], so.t[h.p:])
	for i := range y {
		y[i] += so.gu[i]
	}
	return nil
}
