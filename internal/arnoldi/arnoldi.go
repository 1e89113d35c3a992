// Package arnoldi implements the restarted, deflated shift-invert Arnoldi
// process of the DATE'11 paper (Sec. III): a Krylov eigensolver on the
// structured operator (M − ϑI)⁻¹ that stabilizes a small number n_ϑ of
// Hamiltonian eigenvalues closest to the shift ϑ, together with a certified
// disk radius ρ such that the returned set contains every eigenvalue in
// C_{ϑ,ρ} = {s : |s − ϑ| < ρ}.
//
// Invariants: the disk certificate is what the multi-shift scheduler's
// coverage guarantee rests on — SingleShift may shrink ρ, never report a
// radius containing unreturned eigenvalues. All randomness flows from the
// caller-provided seed (SingleShiftParams.Seed / Config.Rng), so a call is
// a pure function of (operator, parameters): repeated runs are
// bit-identical, which the pool scheduler depends on.
//
// Concurrency: the package holds no global state. Each SingleShift /
// LargestMagnitude call owns its operator, workspace and RNG for the
// duration of the call; concurrent calls are safe as long as they use
// distinct Operator instances (core's pool runs one shift per worker).
package arnoldi

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"repro/internal/mat"
)

// Operator is a linear operator on C^dim. Apply computes y = Op·x; x and y
// are distinct slices of length Dim().
type Operator interface {
	Dim() int
	Apply(y, x []complex128) error
}

// RitzPair is one approximate eigenvalue of the operator with its residual
// estimate; the matching Ritz vector x is lifted on demand by
// RitzVector.
type RitzPair struct {
	Value    complex128 // Ritz value μ
	Residual float64    // ‖Op·x − μ·x‖ estimate (|h_{d+1,d}·y_d|)
}

// Config controls one Arnoldi factorization sweep.
type Config struct {
	// MaxDim is the Krylov subspace dimension d (paper: 60).
	MaxDim int
	// Tol is the relative residual threshold for Ritz convergence.
	Tol float64
	// Rng drives the random start vectors; must not be shared across
	// goroutines.
	Rng *rand.Rand
	// CheckEvery, when positive, evaluates StopEarly every CheckEvery
	// steps so a sweep can end as soon as the caller has what it needs
	// (the projected problem is tiny compared to the basis updates).
	CheckEvery int
	// StopEarly receives a copy of the current projected Hessenberg
	// matrix (its own, so it may overwrite it), the next-vector coupling
	// h_{j+1,j}, and the step count; returning true terminates the sweep
	// at that dimension.
	StopEarly func(h *mat.CDense, hNext float64, steps int) bool
}

func (c *Config) setDefaults() {
	if c.MaxDim == 0 {
		c.MaxDim = 60
	}
	if c.Tol == 0 {
		c.Tol = 1e-9
	}
	if c.Rng == nil {
		c.Rng = rand.New(rand.NewSource(1))
	}
}

// ErrBreakdownEmpty is returned when the start vector lies entirely in the
// locked subspace and no Krylov direction remains.
var ErrBreakdownEmpty = errors.New("arnoldi: start vector fully deflated")

// lane is what the factorization loop and the SingleShift driver need from
// one scalar field: complex128 on the full 2n path, float64 on the
// half-size reciprocal path (real.go). Everything else — MGS with selective
// reorthogonalization, the breakdown test, the StopEarly check, Ritz
// extraction and the whole certification logic — is written once over
// it. complexLane and realLane are the two implementations; each method is
// a whole-vector call, so the hot loop calls the same mat kernels as a loop
// written out for one field.
type lane[T mat.Scalar] interface {
	dim() int
	apply(y, x []T) error
	// randomStart draws a deterministic random unit start vector.
	randomStart(rng *rand.Rand) []T
	// projSubChain, norm2 and scale are the BLAS-1 kernels of the MGS
	// loop. projSubChain is one MGS pass of w over the chain q, writing
	// each link's projection coefficient to h; widen maps a coefficient to
	// the complex Hessenberg.
	projSubChain(q [][]T, w, h []T)
	widen(c T) complex128
	norm2(w []T) float64
	scale(a float64, w []T)
	// lift accumulates x += y·v, mapping a basis vector into a Ritz vector.
	lift(x []complex128, y complex128, v []T)
	// lock appends the directions of a converged Ritz vector to locked.
	lock(locked [][]T, x []complex128) [][]T
	// restartDirection maps an unconverged Ritz vector to a start vector.
	restartDirection(x []complex128) []T
	// baseResidual is ‖Op·x − λ·x‖ on the non-inverted operator when the
	// wrapped inverter can apply it, 0 otherwise; x has unit norm.
	baseResidual(lambda complex128, x []complex128) float64
}

// Factorization holds the result of one Arnoldi sweep over complex
// vectors.
type Factorization = factorization[complex128]

// factorization holds the result of one Arnoldi sweep: an orthonormal basis
// V of the Krylov space (deflated against the locked vectors), the
// projected Hessenberg matrix H (dim steps×steps, complex even for a real
// basis so Ritz extraction is shared), the next-vector coupling
// hNext = h_{d+1,d}, and whether an invariant subspace was hit (lucky
// breakdown: the Ritz values are then exact for the deflated operator).
type factorization[T mat.Scalar] struct {
	Steps     int
	V         [][]T
	H         *mat.CDense
	HNext     float64
	Invariant bool
	OpApplies int
	lane      lane[T]
	// ritz holds the eigenvectors of H from the last RitzPairs call,
	// column idx for Ritz pair idx.
	ritz *mat.CDense
}

// Run performs one Arnoldi factorization of op with the given start vector,
// orthogonalizing every basis vector against locked (modified Gram-Schmidt
// with one reorthogonalization pass).
func Run(op Operator, start []complex128, locked [][]complex128, cfg Config) (*Factorization, error) {
	return run[complex128](complexLane{op}, start, locked, cfg)
}

// run is Run over either lane.
func run[T mat.Scalar](l lane[T], start []T, locked [][]T, cfg Config) (*factorization[T], error) {
	cfg.setDefaults()
	n := l.dim()
	if len(start) != n {
		panic(fmt.Sprintf("arnoldi: start vector length %d, want %d", len(start), n))
	}
	d := cfg.MaxDim
	if lim := n - len(locked); d > lim {
		d = lim
	}
	if d <= 0 {
		return nil, ErrBreakdownEmpty
	}
	// chain is locked ++ V: every MGS pass deflates against the locked
	// vectors and orthogonalizes against the basis in one kernel call,
	// with the coefficients landing in coef.
	nl := len(locked)
	chain := make([][]T, nl, nl+d+1)
	copy(chain, locked)
	coef := make([]T, nl+d)
	v0 := make([]T, n)
	copy(v0, start)
	l.projSubChain(locked, v0, coef[:nl])
	nrm := l.norm2(v0)
	if nrm < 1e-300 {
		return nil, ErrBreakdownEmpty
	}
	l.scale(1/nrm, v0)
	chain = append(chain, v0)

	h := mat.NewCDense(d, d)
	w := make([]T, n)
	fac := &factorization[T]{lane: l}
	for j := 0; j < d; j++ {
		if err := l.apply(w, chain[nl+j]); err != nil {
			return nil, err
		}
		fac.OpApplies++
		wNormBefore := l.norm2(w)
		q, c := chain[:nl+j+1], coef[:nl+j+1]
		l.projSubChain(q, w, c)
		for i := 0; i <= j; i++ {
			h.Set(i, j, l.widen(c[nl+i]))
		}
		// Selective reorthogonalization (Kahan–Parlett "twice is enough"
		// criterion): a second pass is only needed when cancellation ate a
		// substantial part of the vector.
		hn := l.norm2(w)
		if hn < 0.5*wNormBefore {
			l.projSubChain(q, w, c)
			for i := 0; i <= j; i++ {
				h.Set(i, j, h.At(i, j)+l.widen(c[nl+i]))
			}
			hn = l.norm2(w)
		}
		fac.Steps = j + 1
		// Relative breakdown test against the column norm of H.
		var colScale float64
		for i := 0; i <= j; i++ {
			colScale += cmplx.Abs(h.At(i, j))
		}
		if hn <= 1e-12*(colScale+1e-300) {
			fac.Invariant = true
			fac.HNext = 0
			break
		}
		fac.HNext = hn
		// Periodic early-exit check on the projected problem.
		if cfg.StopEarly != nil && cfg.CheckEvery > 0 && (j+1)%cfg.CheckEvery == 0 && j+1 < d {
			k := j + 1
			if cfg.StopEarly(leading(h, k), hn, k) {
				chain = append(chain, nextBasis(l, w, hn))
				break
			}
		}
		if j+1 < d {
			h.Set(j+1, j, complex(hn, 0))
		}
		chain = append(chain, nextBasis(l, w, hn))
	}
	fac.V = chain[nl:]
	fac.H = leading(h, fac.Steps)
	return fac, nil
}

// leading copies the leading k×k block of h.
func leading(h *mat.CDense, k int) *mat.CDense {
	hk := mat.NewCDense(k, k)
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			hk.Set(i, j, h.At(i, j))
		}
	}
	return hk
}

// nextBasis returns w/hn as a fresh basis vector.
func nextBasis[T mat.Scalar](l lane[T], w []T, hn float64) []T {
	next := make([]T, len(w))
	copy(next, w)
	l.scale(1/hn, next)
	return next
}

// RitzPairs extracts the Ritz values of the factorization, the eigenvalues
// of the projected H, with their residual estimates. It lifts no vectors:
// each lift is a pass over the whole basis, and a caller needs only a few
// of them, so RitzVector lifts one on demand. For a real basis the Ritz
// values come in conjugate pairs with conjugate vectors and identical
// residuals.
func (f *factorization[T]) RitzPairs() ([]RitzPair, error) {
	k := f.Steps
	if k == 0 {
		return nil, nil
	}
	vals, vecs, err := mat.CEig(f.H)
	if err != nil {
		return nil, err
	}
	f.ritz = vecs
	out := make([]RitzPair, k)
	for idx := 0; idx < k; idx++ {
		res := f.HNext * cmplx.Abs(vecs.At(k-1, idx))
		if f.Invariant {
			res = 0
		}
		out[idx] = RitzPair{Value: vals[idx], Residual: res}
	}
	return out, nil
}

// RitzVector lifts the Ritz vector of pair idx of the last RitzPairs call
// back through the basis: x = Σ_i y_i·v_i for the eigenvector y of H.
func (f *factorization[T]) RitzVector(idx int) []complex128 {
	x := make([]complex128, len(f.V[0]))
	for i := 0; i < f.Steps; i++ {
		f.lane.lift(x, f.ritz.At(i, idx), f.V[i])
	}
	return x
}

// complexLane runs the iteration on C^n: the full 2n Hamiltonian path and
// the plain ω_max estimate.
type complexLane struct{ op Operator }

func (l complexLane) dim() int                      { return l.op.Dim() }
func (l complexLane) apply(y, x []complex128) error { return l.op.Apply(y, x) }
func (l complexLane) randomStart(rng *rand.Rand) []complex128 {
	return RandomStart(rng, l.op.Dim())
}
func (complexLane) projSubChain(q [][]complex128, w, h []complex128) {
	mat.CProjSubChain(q, w, h)
}
func (complexLane) widen(c complex128) complex128   { return c }
func (complexLane) norm2(w []complex128) float64    { return mat.CNorm2(w) }
func (complexLane) scale(a float64, w []complex128) { mat.CScaleVec(complex(a, 0), w) }
func (complexLane) lift(x []complex128, y complex128, v []complex128) {
	mat.CAxpy(y, v, x)
}
func (complexLane) lock(locked [][]complex128, x []complex128) [][]complex128 {
	return append(locked, normalized(x))
}
func (complexLane) restartDirection(x []complex128) []complex128 { return x }

func (l complexLane) baseResidual(lambda complex128, x []complex128) float64 {
	bo, ok := l.op.(BaseOperator)
	if !ok {
		return 0
	}
	y := make([]complex128, len(x))
	if err := bo.ApplyBase(y, x); err != nil {
		return 0
	}
	mat.CAxpy(-lambda, x, y)
	return mat.CNorm2(y)
}

// normalized returns a unit-norm copy of v.
func normalized(v []complex128) []complex128 {
	out := make([]complex128, len(v))
	copy(out, v)
	var ss float64
	for _, z := range out {
		ss += real(z)*real(z) + imag(z)*imag(z)
	}
	n := math.Sqrt(ss)
	if n > 0 {
		inv := complex(1/n, 0)
		for i := range out {
			out[i] *= inv
		}
	}
	return out
}

// newRng builds a deterministic source for restart vectors.
func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// RandomStart fills a deterministic random complex unit vector.
func RandomStart(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	nrm := mat.CNorm2(v)
	if nrm > 0 {
		mat.CScaleVec(complex(1/nrm, 0), v)
	}
	return v
}

// LargestMagnitude estimates the largest-modulus eigenvalue of op by a
// restarted Arnoldi iteration on op itself (no inversion). Used to obtain
// the search bound ω_max (paper Sec. IV-A). relTol is the relative change
// threshold between restarts.
func LargestMagnitude(op Operator, cfg Config, restarts int, relTol float64) (complex128, error) {
	cfg.setDefaults()
	if restarts <= 0 {
		restarts = 6
	}
	if relTol == 0 {
		relTol = 1e-6
	}
	var best complex128
	start := RandomStart(cfg.Rng, op.Dim())
	for r := 0; r < restarts; r++ {
		fac, err := Run(op, start, nil, cfg)
		if err != nil {
			return 0, err
		}
		pairs, err := fac.RitzPairs()
		if err != nil {
			return 0, err
		}
		top := -1
		var topValue complex128
		for idx, p := range pairs {
			if cmplx.Abs(p.Value) > cmplx.Abs(topValue) {
				top, topValue = idx, p.Value
			}
		}
		if top < 0 {
			return 0, errors.New("arnoldi: no Ritz pairs extracted")
		}
		if r > 0 && math.Abs(cmplx.Abs(topValue)-cmplx.Abs(best)) <= relTol*cmplx.Abs(topValue) {
			return topValue, nil
		}
		best = topValue
		start = fac.RitzVector(top) // restart in the dominant direction
		if fac.Invariant {
			break
		}
	}
	return best, nil
}
