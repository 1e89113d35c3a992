// Package hamiltonian builds the Hamiltonian matrix associated with a
// scattering (or immittance) state-space macromodel (paper Eq. 5) and
// provides fast structured operators on it:
//
//   - Apply:       y = M·x           in O(n·p)
//   - ShiftInvert: y = (M − ϑI)⁻¹·x  in O(n·p) per apply after an
//     O(n·p²) per-shift setup (Sherman–Morrison–Woodbury, paper Eq. 6)
//
// The purely imaginary eigenvalues of M are the frequencies where singular
// values of H(jω) cross the unit threshold (scattering) or where the
// Hermitian part of H(jω) becomes singular (immittance), so they fully
// characterize passivity.
//
// Invariants: an Op never mutates its model; RefineEig and IsCrossing are
// deterministic (fixed internal start vectors), so refining the same
// eigenvalue twice yields the same bits — the canonical-polish guarantee
// in core builds on this.
//
// Concurrency: an Op is read-only after New and safe for concurrent use —
// Apply draws its scratch from a sync.Pool and ShiftInvert only reads the
// packed kernels. A ShiftOp carries per-shift factorization scratch and
// must stay confined to one goroutine at a time (each pool task builds or
// owns its own).
package hamiltonian

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/mat"
	"repro/internal/statespace"
)

// Representation selects which passivity test the Hamiltonian encodes.
type Representation int

const (
	// Scattering tests σ_i(H(jω)) ≤ 1 (paper Eq. 3–5). Requires σ_max(D) < 1.
	Scattering Representation = iota
	// Immittance tests λ_min(H(jω) + H(jω)ᴴ) ≥ 0 for admittance/impedance
	// representations. Requires D + Dᵀ nonsingular.
	Immittance
)

// String names the representation for logs and error messages.
func (r Representation) String() string {
	switch r {
	case Scattering:
		return "scattering"
	case Immittance:
		return "immittance"
	default:
		return fmt.Sprintf("Representation(%d)", int(r))
	}
}

// ErrNotAsymptoticallyPassive is returned when the direct-coupling matrix D
// violates the strict asymptotic passivity precondition (paper Eq. 4).
var ErrNotAsymptoticallyPassive = errors.New("hamiltonian: D violates strict asymptotic passivity (σ_max(D) ≥ 1)")

// Op is the structured Hamiltonian operator M = K₀ + U·W·V with
// K₀ = blkdiag(A, −Aᵀ), U = [B 0; 0 Cᵀ], V = [C 0; 0 Bᵀ] and a 2p×2p
// coupling W determined by the representation. Read-only after
// construction; safe for concurrent use.
type Op struct {
	Model *statespace.Model
	Rep   Representation
	N     int        // dynamic order n (M is 2n×2n)
	P     int        // ports
	w     *mat.Dense // 2p×2p coupling

	// id is a process-unique operator identity. A ShiftCache may serve many
	// Ops (the fleet engine shares one cache across jobs), so cache keys
	// combine id with the model's kernel epoch and the exact shift bits —
	// epoch alone cannot distinguish two different models.
	id uint64

	// half, when non-nil, is the half-size reciprocal sweep operator
	// (spec(M)² on n states instead of spec(M) on 2n). Built by NewWith
	// when the model is reciprocal and the half path is enabled; shares
	// this Op's model, cache and traffic counters.
	half *HalfOp

	// cache, when set, memoizes factored shift state across ShiftInvert
	// calls (see ShiftCache). Atomic so fleet wiring and in-flight solves
	// never race; nil means every ShiftInvert factors from scratch.
	cache atomic.Pointer[ShiftCache]
	// cacheHits/cacheMisses attribute cache traffic to this operator —
	// an engine-wide cache's global counters can't break down per case.
	cacheHits, cacheMisses atomic.Uint64

	// applyPool recycles Apply workspaces (t, wt ∈ C^{2p}, u ∈ C^{2n}) so
	// steady-state Apply calls are allocation-free; ω_max estimation and
	// per-eigenvalue residual checks call Apply thousands of times.
	applyPool sync.Pool
	// panelPool recycles the p×p SMW setup panels of ShiftInvert.
	panelPool sync.Pool
	// shiftPool recycles ShiftOp shells (apply scratch only — the factored
	// state lives in shiftFactor), so a cache hit builds its operator with
	// zero allocations.
	shiftPool sync.Pool
}

// opIDs hands out process-unique Op identities for cache keying.
var opIDs atomic.Uint64

type applyScratch struct{ t, wt, u []complex128 }

type smwPanels struct{ x1, x2 []complex128 }

func (op *Op) getApplyScratch() *applyScratch {
	if ws, ok := op.applyPool.Get().(*applyScratch); ok {
		return ws
	}
	p2, n2 := 2*op.P, 2*op.N
	return &applyScratch{
		t:  make([]complex128, p2),
		wt: make([]complex128, p2),
		u:  make([]complex128, n2),
	}
}

func (op *Op) getPanels() *smwPanels {
	if ps, ok := op.panelPool.Get().(*smwPanels); ok {
		return ps
	}
	pp := op.P * op.P
	return &smwPanels{x1: make([]complex128, pp), x2: make([]complex128, pp)}
}

// New builds the Hamiltonian operator for the model. The operator works on
// a state-balanced copy of the realization (statespace.Model.Balanced):
// the transfer function — and therefore the Hamiltonian spectrum — is
// unchanged, but the B/C scale disparity of physical macromodels, which
// would otherwise make projected eigenproblems hopelessly ill conditioned,
// is removed.
func New(m *statespace.Model, rep Representation) (*Op, error) {
	return NewWith(m, rep, NewOptions{})
}

// NewWith builds the Hamiltonian operator with explicit path options. With
// Half == HalfAuto (the default) reciprocity is detected on the source
// model — before balancing, so bit-exact symmetry of as-built models is
// seen — and, when it holds, the half-size sweep operator is attached
// (see HalfOp). HalfForce skips detection; HalfOff never attaches it.
// Under HalfAuto a half-path construction failure (e.g. a singular
// coupling) silently falls back to the full path; under HalfForce it is
// an error.
func NewWith(m *statespace.Model, rep Representation, opts NewOptions) (*Op, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	useHalf := false
	switch opts.Half {
	case HalfForce:
		useHalf = true
	case HalfAuto:
		useHalf = m.Reciprocal(opts.HalfTol)
	}
	m = m.Balanced()
	p := m.P
	var w *mat.Dense
	switch rep {
	case Scattering:
		// R = DᵀD − I, S = DDᵀ − I,
		// W = [ −R⁻¹Dᵀ  −R⁻¹ ]
		//     [  S⁻¹     DR⁻¹ ]
		dn, err := mat.Norm2Mat(m.D)
		if err != nil {
			return nil, err
		}
		if dn >= 1 {
			return nil, ErrNotAsymptoticallyPassive
		}
		d := m.D
		r := d.T().Mul(d).Sub(mat.Eye(p))
		s := d.Mul(d.T()).Sub(mat.Eye(p))
		rinv, err := mat.Inverse(r)
		if err != nil {
			return nil, fmt.Errorf("hamiltonian: R singular: %w", err)
		}
		sinv, err := mat.Inverse(s)
		if err != nil {
			return nil, fmt.Errorf("hamiltonian: S singular: %w", err)
		}
		w = mat.NewDense(2*p, 2*p)
		setBlock(w, 0, 0, rinv.Mul(d.T()).Scale(-1))
		setBlock(w, 0, p, rinv.Scale(-1))
		setBlock(w, p, 0, sinv)
		setBlock(w, p, p, d.Mul(rinv))
	case Immittance:
		// Q = D + Dᵀ,
		// W = [ −Q⁻¹  −Q⁻¹ ]
		//     [  Q⁻¹   Q⁻¹ ]
		q := m.D.Add(m.D.T())
		qinv, err := mat.Inverse(q)
		if err != nil {
			return nil, fmt.Errorf("hamiltonian: D+Dᵀ singular: %w", err)
		}
		w = mat.NewDense(2*p, 2*p)
		setBlock(w, 0, 0, qinv.Scale(-1))
		setBlock(w, 0, p, qinv.Scale(-1))
		setBlock(w, p, 0, qinv)
		setBlock(w, p, p, qinv)
	default:
		return nil, fmt.Errorf("hamiltonian: unknown representation %v", rep)
	}
	op := &Op{Model: m, Rep: rep, N: m.Order(), P: p, w: w, id: opIDs.Add(1)}
	if useHalf {
		h, err := newHalfOp(op)
		if err != nil {
			if opts.Half == HalfForce {
				return nil, err
			}
		} else {
			op.half = h
		}
	}
	return op, nil
}

// Half returns the half-size reciprocal sweep operator, or nil when the
// full-size path is active.
func (op *Op) Half() *HalfOp { return op.half }

// HalfSafeFraction bounds how close (relative to ω) a half-path certified
// disk may approach the origin. Squaring the spectrum costs relative
// resolution near λ = 0: for an eigenvalue at distance d from the shift
// jω, a λ-separation Δ maps to a μ-separation Δ·|λ₁+λ₂| against a μ-scale
// of d·|λ+jω| — a loss factor of roughly 2|λ|/ω when |λ| ≪ ω, which lets
// near-origin eigenvalue pairs collapse into one Ritz ghost while the
// disk still certifies completeness. Keeping the disk radius below this
// fraction of ω bounds the loss factor at 2·(1 − HalfSafeFraction), so
// sweep shifts whose disk would reach closer to the origin run on the
// full-size path instead (they are the O(log) near-origin tail of a
// sweep; the bulk keeps the half-size speedup).
const HalfSafeFraction = 0.75

// HalfRouted reports whether the sweep shift (ω, ρ₀) runs on the
// half-size path: the operator must carry one and the requested disk must
// respect HalfSafeFraction.
func (op *Op) HalfRouted(omega, rho0 float64) bool {
	return op.half != nil && rho0 < HalfSafeFraction*omega
}

// SweepTheta maps a sweep shift (ω, ρ₀) to the shift the routed path
// factors at: jω on the full path, τ = −ω² (the squared eigenvalue) on
// the half path. Callers that replay core's sweep shifts obtain them
// through this method, so they factor (and key the shift cache on) the
// same bits the solve does.
func (op *Op) SweepTheta(omega, rho0 float64) complex128 {
	if op.HalfRouted(omega, rho0) {
		return complex(-(omega * omega), 0)
	}
	return complex(0, omega)
}

func setBlock(dst *mat.Dense, i0, j0 int, b *mat.Dense) {
	for i := 0; i < b.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			dst.Set(i0+i, j0+j, b.At(i, j))
		}
	}
}

// Dim returns the dimension 2n of the Hamiltonian matrix.
func (op *Op) Dim() int { return 2 * op.N }

// applyV computes t = V·x = [C·x₁; Bᵀ·x₂], t ∈ C^{2p}.
func (op *Op) applyV(t, x []complex128) {
	n, p := op.N, op.P
	op.Model.CApplyC(t[:p], x[:n])
	op.Model.CApplyBT(t[p:2*p], x[n:2*n])
}

// applyU computes y = U·s = [B·s₁; Cᵀ·s₂], y ∈ C^{2n}.
func (op *Op) applyU(y, s []complex128) {
	n, p := op.N, op.P
	op.Model.CApplyB(y[:n], s[:p])
	op.Model.CApplyCT(y[n:2*n], s[p:2*p])
}

// applyW computes dst = W·t on a 2p complex vector. W is real, so each
// element costs two real multiplies instead of a complex×complex product.
func (op *Op) applyW(dst, t []complex128) {
	p2 := 2 * op.P
	for i := 0; i < p2; i++ {
		var re, im float64
		row := op.w.Row(i)
		for j, wij := range row[:p2] {
			tj := t[j]
			re += wij * real(tj)
			im += wij * imag(tj)
		}
		dst[i] = complex(re, im)
	}
}

// Apply computes y = M·x in O(n·p) without forming M. x and y have length
// 2n and must not alias.
func (op *Op) Apply(y, x []complex128) {
	n := op.N
	if len(x) != 2*n || len(y) != 2*n {
		panic(fmt.Sprintf("hamiltonian: Apply expects vectors of length %d", 2*n))
	}
	// y = K₀·x.
	op.Model.CApplyA(y[:n], x[:n])
	op.Model.CApplyAT(y[n:2*n], x[n:2*n])
	for i := n; i < 2*n; i++ {
		y[i] = -y[i]
	}
	// y += U·W·V·x.
	ws := op.getApplyScratch()
	op.applyV(ws.t, x)
	op.applyW(ws.wt, ws.t)
	op.applyU(ws.u, ws.wt)
	for i, v := range ws.u {
		y[i] += v
	}
	op.applyPool.Put(ws)
}

// shiftFactor is the immutable factored state of one shift-invert setup:
// the shift and the LU-factored 2p×2p SMW capacitance. It is read-only
// after construction, so any number of ShiftOps — across goroutines — may
// apply against the same shiftFactor concurrently (the CLU solve takes
// caller scratch). This is the unit the ShiftCache stores.
type shiftFactor struct {
	theta complex128
	cap   *mat.CLU // factored (I + W·V·G·U), 2p×2p (full path)
	// rcap is the half path's capacitance: for the real shift τ = −ω² the
	// squared operator's SMW capacitance I + V·Gτ·U is real, so half-path
	// factors carry a real LU (cap stays nil) and applies run entirely in
	// real arithmetic.
	rcap *mat.LU
}

// ShiftOp is a shift-invert operator (M − ϑI)⁻¹ for one shift ϑ: a shared
// immutable shiftFactor plus private apply scratch. Each apply costs
// O(n·p). Not safe for concurrent use (scratch buffers); create one per
// goroutine — concurrent ShiftOps may share the underlying factorization.
// Call Release when done: it unpins the cache entry (if the operator came
// from a ShiftCache) and recycles the scratch. Using a ShiftOp after
// Release is a bug.
type ShiftOp struct {
	op    *Op
	fac   *shiftFactor
	entry *cacheEntry // non-nil iff pinned in a ShiftCache
	// scratch
	g, gu   []complex128 // 2n
	t, s    []complex128 // 2p
	permBuf []complex128 // 2p, CLU permutation gather
}

// newShiftOp wraps a factor in a (pooled) ShiftOp shell.
func (op *Op) newShiftOp(fac *shiftFactor, entry *cacheEntry) *ShiftOp {
	if so, ok := op.shiftPool.Get().(*ShiftOp); ok {
		so.fac, so.entry = fac, entry
		return so
	}
	n, p2 := op.N, 2*op.P
	// All persistent ShiftOp scratch in one allocation.
	buf := make([]complex128, 4*n+3*p2)
	return &ShiftOp{
		op:      op,
		fac:     fac,
		entry:   entry,
		g:       buf[:2*n],
		gu:      buf[2*n : 4*n],
		t:       buf[4*n : 4*n+p2],
		s:       buf[4*n+p2 : 4*n+2*p2],
		permBuf: buf[4*n+2*p2:],
	}
}

// Release returns the operator's scratch to the pool and, when the
// factorization came from a ShiftCache, unpins its entry so eviction may
// reclaim it. Safe on nil. Idempotent within one ownership cycle only —
// after Release the ShiftOp may be handed to another goroutine by the
// pool.
func (so *ShiftOp) Release() {
	if so == nil {
		return
	}
	if so.entry != nil {
		so.entry.cache.release(so.entry)
		so.entry = nil
	}
	so.fac = nil
	so.op.shiftPool.Put(so)
}

// ShiftInvert factors (M − ϑI)⁻¹ using the Sherman–Morrison–Woodbury form
//
//	(K₀ − ϑI + UWV)⁻¹ = G − G·U·(I + W·V·G·U)⁻¹·W·V·G,
//	G = blkdiag((A−ϑI)⁻¹, (−Aᵀ−ϑI)⁻¹)
//
// which is algebraically equivalent to paper Eq. 6 but does not require W
// to be invertible. Because G is block diagonal and U, V interleave B, C
// block-wise, the inner matrix is itself block diagonal,
//
//	V·G·U = blkdiag( C·(A−ϑI)⁻¹·B,  −Bᵀ·(Aᵀ+ϑI)⁻¹·Cᵀ ),
//
// and each p×p panel follows the block-sparsity of B, so the whole setup is
// O(n·p) + O(p³) for the capacitance assembly/factorization — not the 2p
// independent O(n·p) column passes of the naive route. Fails with
// ErrSingular when ϑ coincides with an eigenvalue of A/−Aᵀ or of M itself.
//
// When a ShiftCache is attached (EnsureShiftCache / fleet wiring), the
// factored state is looked up by (op, kernel epoch, exact ϑ bits) first and
// only factored on a miss; either way the returned operator is bit-for-bit
// the operator the uncached path would build, so solves are unaffected by
// cache state. Callers must Release the returned ShiftOp.
func (op *Op) ShiftInvert(theta complex128) (*ShiftOp, error) {
	if c := op.cache.Load(); c != nil {
		return c.shiftInvert(op, theta)
	}
	fac, err := op.factorShift(theta)
	if err != nil {
		return nil, err
	}
	return op.newShiftOp(fac, nil), nil
}

// factorShift runs the full SMW setup for one shift: both resolvent panels
// plus capacitance assembly and factorization.
func (op *Op) factorShift(theta complex128) (*shiftFactor, error) {
	// Panels: x1 = C·(A−ϑI)⁻¹·B, x2 = Bᵀ·(Aᵀ−(−ϑ)I)⁻¹·Cᵀ (negated during
	// assembly).
	ps := op.getPanels()
	defer op.panelPool.Put(ps)
	if err := op.Model.CResolventB(ps.x1, theta); err != nil {
		return nil, fmt.Errorf("hamiltonian: shift %v hits a pole: %w", theta, err)
	}
	if err := op.Model.BTResolventCT(ps.x2, -theta); err != nil {
		return nil, fmt.Errorf("hamiltonian: shift %v hits a pole: %w", theta, err)
	}
	p := op.P
	p2 := 2 * p
	x1, x2 := ps.x1, ps.x2
	for i := range x2 {
		x2[i] = -x2[i]
	}
	// cap = I + W·blkdiag(x1, x2), accumulated row-wise with real×complex
	// products (W is real) against the contiguous panel rows.
	capm := mat.NewCDense(p2, p2)
	for i := 0; i < p2; i++ {
		wrow := op.w.Row(i)
		dst := capm.Row(i)
		for k := 0; k < p; k++ {
			if wik := wrow[k]; wik != 0 {
				x1row := x1[k*p : (k+1)*p]
				out := dst[:p]
				for j, v := range x1row {
					out[j] += complex(wik*real(v), wik*imag(v))
				}
			}
			if wik := wrow[p+k]; wik != 0 {
				x2row := x2[k*p : (k+1)*p]
				out := dst[p:]
				for j, v := range x2row {
					out[j] += complex(wik*real(v), wik*imag(v))
				}
			}
		}
		dst[i]++
	}
	f, err := mat.CLUFactorInPlace(capm)
	if err != nil {
		return nil, fmt.Errorf("hamiltonian: shift %v is (numerically) an eigenvalue: %w", theta, err)
	}
	return &shiftFactor{theta: theta, cap: f}, nil
}

// applyG computes y = G·x = [(A−ϑI)⁻¹x₁; (−Aᵀ−ϑI)⁻¹x₂] in O(n).
func (so *ShiftOp) applyG(y, x []complex128) error {
	n := so.op.N
	theta := so.fac.theta
	if err := so.op.Model.CSolveShiftedA(y[:n], x[:n], theta); err != nil {
		return err
	}
	// (−Aᵀ − ϑI)⁻¹ = −(Aᵀ + ϑI)⁻¹ = −(Aᵀ − (−ϑ)I)⁻¹.
	if err := so.op.Model.CSolveShiftedAT(y[n:2*n], x[n:2*n], -theta); err != nil {
		return err
	}
	for i := n; i < 2*n; i++ {
		y[i] = -y[i]
	}
	return nil
}

// Theta returns the shift.
func (so *ShiftOp) Theta() complex128 { return so.fac.theta }

// Dim returns the dimension 2n of the underlying Hamiltonian.
func (so *ShiftOp) Dim() int { return 2 * so.op.N }

// ApplyBase applies the original (non-inverted) Hamiltonian: y = M·x. It
// lets the Arnoldi layer measure eigenpair residuals in M itself
// (arnoldi.BaseOperator).
func (so *ShiftOp) ApplyBase(y, x []complex128) error {
	so.op.Apply(y, x)
	return nil
}

// Apply computes y = (M − ϑI)⁻¹·x. x and y have length 2n and may alias.
func (so *ShiftOp) Apply(y, x []complex128) error {
	op := so.op
	n := op.N
	if len(x) != 2*n || len(y) != 2*n {
		panic(fmt.Sprintf("hamiltonian: ShiftOp.Apply expects vectors of length %d", 2*n))
	}
	if err := so.applyG(so.g, x); err != nil {
		return err
	}
	op.applyV(so.t, so.g)
	op.applyW(so.s, so.t)
	// Caller-scratch solve: the factorization may be shared with other
	// in-flight ShiftOps via the cache, so it must stay read-only here.
	so.fac.cap.SolveIntoScratch(so.s, so.s, so.permBuf)
	op.applyU(so.gu, so.s)
	if err := so.applyG(so.gu, so.gu); err != nil {
		return err
	}
	for i := 0; i < 2*n; i++ {
		y[i] = so.g[i] - so.gu[i]
	}
	return nil
}
