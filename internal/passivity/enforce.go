package passivity

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/hamiltonian"
	"repro/internal/mat"
	"repro/internal/statespace"
)

// EnforceOptions configures iterative passivity enforcement.
type EnforceOptions struct {
	// Characterize options used at every iteration.
	Char Options
	// MaxIters bounds the outer perturbation loop. Default 20.
	MaxIters int
	// Margin is the distance below 1 the violated singular values are
	// pushed to (σ target = 1 − Margin). Default 1e-3.
	Margin float64
	// MaxSigmaPerBand bounds how many violated singular values per band
	// peak enter the constraint set. Default 4.
	MaxSigmaPerBand int
	// Checkpoint, when non-nil, receives one durable-resume snapshot after
	// every completed enforcement iteration (characterize → perturb →
	// carry): the full perturbed residue state plus the loop's carried
	// bookkeeping (see EnforceCheckpoint). The callback runs on the
	// coordinator goroutine between iterations, never concurrently, and is
	// observational — it carries copies and cannot perturb the run.
	Checkpoint func(EnforceCheckpoint)
	// Resume, when non-nil, restarts the enforcement loop from a persisted
	// checkpoint: the residue matrices are restored bit-exactly onto a
	// fresh clone of the input model and the loop continues at the
	// checkpoint's iteration with the carried ω_max bound the uninterrupted
	// run would have used. Every re-characterization is a cold solve of
	// the current residues, so the remaining iterations characterize
	// bit-identically. Enforcement resume is iteration-granular: work
	// inside an interrupted iteration is re-run.
	Resume *EnforceCheckpoint
	// ReestimateOmegaMax disables carrying the certified spectral-radius
	// bound across iterations. By default (false, and with Char.Core.
	// OmegaMax zero) every re-characterization reuses the previous
	// iteration's certified ω_max inflated by the relative perturbation
	// norm (see carryOmegaMax) instead of re-running the estimation
	// Arnoldi — one fewer Arnoldi sweep per enforcement iteration; one
	// confirming estimate still runs before passivity is certified on a
	// carried bound (see EnforceContext).
	ReestimateOmegaMax bool
}

func (o *EnforceOptions) setDefaults() {
	o.Char.setDefaults()
	if o.MaxIters == 0 {
		o.MaxIters = 20
	}
	if o.Margin == 0 {
		o.Margin = 1e-3
	}
	if o.MaxSigmaPerBand == 0 {
		o.MaxSigmaPerBand = 4
	}
}

// validate rejects negative values that setDefaults passes through — a
// negative MaxIters would skip the loop entirely and report on a nil
// characterization.
func (o *EnforceOptions) validate() error {
	switch {
	case o.MaxIters < 0:
		return fmt.Errorf("passivity: MaxIters must be ≥ 0, got %d", o.MaxIters)
	case o.Margin < 0:
		return fmt.Errorf("passivity: Margin must be ≥ 0, got %g", o.Margin)
	case o.MaxSigmaPerBand < 0:
		return fmt.Errorf("passivity: MaxSigmaPerBand must be ≥ 0, got %d", o.MaxSigmaPerBand)
	}
	return o.Char.validate()
}

// EnforceReport summarizes an enforcement run.
type EnforceReport struct {
	Iterations    int
	InitialWorst  float64 // worst σ_max before enforcement
	FinalWorst    float64 // worst σ_max after
	ResidueChange float64 // ‖ΔC‖_F / ‖C‖_F cumulative relative perturbation
	FinalReport   *Report
	// SolverTotals accumulates the eigensolver work counters over every
	// characterization of the run.
	SolverTotals core.Stats
}

// ErrEnforcementFailed is returned when the iteration cap is reached with
// violations still present.
var ErrEnforcementFailed = errors.New("passivity: enforcement did not converge within the iteration budget")

// EnforceCheckpoint is the durable state of an enforcement run at an
// iteration boundary — everything iteration Iter needs to run exactly as
// it would have in the uninterrupted run. Unlike the eigensolver's
// per-shift checkpoints, it is self-contained (no prefix accumulation):
// the latest checkpoint alone restores the loop.
type EnforceCheckpoint struct {
	// Iter is the next iteration to run (checkpoints are emitted after an
	// iteration completes, so Iter ≥ 1).
	Iter int
	// Cumulative is the accumulated ‖δC‖_F over the completed iterations.
	Cumulative float64
	// CarriedOmegaMax is the carried spectral-radius bound for iteration
	// Iter (meaningful when Carried is set; see carryOmegaMax).
	CarriedOmegaMax float64
	// Carried records whether the ω_max carry was active.
	Carried bool
	// InitialWorst is the worst σ_max before enforcement (captured at
	// iteration 0).
	InitialWorst float64
	// SolverTotals accumulates the eigensolver work counters of the
	// completed iterations.
	SolverTotals core.Stats
	// Residues are the perturbed residue matrices after the completed
	// iterations: one row-major p×m_k block per model column, float bits
	// preserved exactly so the restored model characterizes
	// bit-identically.
	Residues [][]float64
}

// snapshotEnforce captures the loop state after one completed iteration.
func snapshotEnforce(iter int, cumulative, carriedOmegaMax float64, carried bool,
	rep *EnforceReport, work *statespace.Model) EnforceCheckpoint {
	ck := EnforceCheckpoint{
		Iter:            iter,
		Cumulative:      cumulative,
		CarriedOmegaMax: carriedOmegaMax,
		Carried:         carried,
		InitialWorst:    rep.InitialWorst,
		SolverTotals:    rep.SolverTotals,
		Residues:        make([][]float64, len(work.Cols)),
	}
	for k := range work.Cols {
		ck.Residues[k] = append([]float64(nil), work.Cols[k].C.Data...)
	}
	return ck
}

// restore overwrites the working model's residue matrices with the
// checkpoint's (bit-exact) and invalidates the packed kernels so the
// next structured-operator call sees the restored state.
func (ck *EnforceCheckpoint) restore(work *statespace.Model) error {
	if ck.Iter < 1 {
		return fmt.Errorf("passivity: resume checkpoint iteration %d < 1", ck.Iter)
	}
	if len(ck.Residues) != len(work.Cols) {
		return fmt.Errorf("passivity: resume checkpoint has %d residue columns for a %d-column model",
			len(ck.Residues), len(work.Cols))
	}
	for k := range work.Cols {
		c := work.Cols[k].C
		if len(ck.Residues[k]) != len(c.Data) {
			return fmt.Errorf("passivity: resume residue column %d has %d entries, want %d",
				k, len(ck.Residues[k]), len(c.Data))
		}
	}
	for k := range work.Cols {
		copy(work.Cols[k].C.Data, ck.Residues[k])
	}
	work.InvalidateKernels()
	return nil
}

// Enforce perturbs the residue matrices C of a non-passive macromodel until
// the Hamiltonian characterization reports no imaginary eigenvalues. Each
// pass linearizes the violated singular values at the in-band peaks,
//
//	σ_i(ω*) + Re(u_iᴴ · δC (jω*I − A)⁻¹B · v_i) ≤ 1 − margin,
//
// and applies the minimum-Frobenius-norm residue update satisfying these
// constraints (least-norm solve through the small Gram matrix). The model
// poles are untouched, preserving stability; D is untouched, preserving
// asymptotic passivity. The input model is not modified.
func Enforce(m *statespace.Model, opts EnforceOptions) (*statespace.Model, *EnforceReport, error) {
	return EnforceContext(context.Background(), m, opts)
}

// EnforceContext is Enforce with cancellation/deadline support (threaded
// into every re-characterization).
//
// When the iteration budget runs out with violations still present, the
// partially-enforced model and its EnforceReport are returned alongside an
// error wrapping ErrEnforcementFailed: the partial model is often close to
// passive and callers may retry with a larger budget or accept it. The
// report's FinalReport/FinalWorst come from the last characterization, i.e.
// they describe the model state *before* the final perturbation pass (a
// re-characterization just to freshen a failure report would double the
// cost of every failed run).
func EnforceContext(ctx context.Context, m *statespace.Model, opts EnforceOptions) (*statespace.Model, *EnforceReport, error) {
	if err := opts.validate(); err != nil {
		return nil, nil, err
	}
	opts.setDefaults()
	work := m.Clone()
	rep := &EnforceReport{}

	baseNorm := residueNorm(m)
	var cumulative float64

	charOpts := opts.Char
	// One pool and one client span the whole run: eigensolver shifts,
	// σ probes, and constraint assembly of every iteration are tasks of
	// the same scheduling identity (a fleet engine passes its own).
	defer ensurePoolClient(&charOpts.Core)()
	carried := false
	var lastChr *Report
	iterStart := 0
	if r := opts.Resume; r != nil {
		if r.Iter > opts.MaxIters {
			return nil, nil, fmt.Errorf("passivity: resume iteration %d exceeds MaxIters %d", r.Iter, opts.MaxIters)
		}
		if err := r.restore(work); err != nil {
			return nil, nil, err
		}
		iterStart = r.Iter
		cumulative = r.Cumulative
		rep.InitialWorst = r.InitialWorst
		rep.SolverTotals = r.SolverTotals
		if r.Carried {
			charOpts.Core.OmegaMax = r.CarriedOmegaMax
			carried = true
		}
	}
	if iterStart >= opts.MaxIters {
		// The budget was already exhausted when the run was interrupted —
		// the crash hit between the final checkpoint and the terminal
		// record. Re-characterize once to rebuild the failure report; it
		// describes the post-final-perturbation state, so it may even
		// certify passivity that the uninterrupted run never checked for.
		chr, err := CharacterizeContext(ctx, work, charOpts)
		if err != nil {
			return nil, nil, err
		}
		rep.SolverTotals.Add(chr.Solver)
		rep.Iterations = opts.MaxIters
		rep.FinalWorst = chr.WorstViolation()
		rep.ResidueChange = cumulative / baseNorm
		rep.FinalReport = chr
		if chr.Passive {
			return work, rep, nil
		}
		return work, rep, fmt.Errorf("%w (worst σ still %g after %d iterations)",
			ErrEnforcementFailed, rep.FinalWorst, opts.MaxIters)
	}
	for iter := iterStart; iter < opts.MaxIters; iter++ {
		chr, err := CharacterizeContext(ctx, work, charOpts)
		if err != nil {
			return nil, nil, err
		}
		lastChr = chr
		rep.SolverTotals.Add(chr.Solver)
		if iter == 0 {
			rep.InitialWorst = chr.WorstViolation()
		}
		if chr.Passive && carried {
			// The carried bound is a heuristic: before certifying the
			// perturbed model as passive on its strength, confirm it with
			// ONE fresh spectral-radius estimate (the cost the carry saved
			// on every non-final iteration). If the true radius escaped
			// the carried bound, re-characterize over the full band — a
			// crossing could be hiding just above it.
			est, err := freshOmegaMax(ctx, charOpts.Core.Client, work, charOpts.Core.Seed)
			if err != nil {
				return nil, nil, err
			}
			if est > charOpts.Core.OmegaMax {
				charOpts.Core.OmegaMax = est
				chr, err = CharacterizeContext(ctx, work, charOpts)
				if err != nil {
					return nil, nil, err
				}
				lastChr = chr
				rep.SolverTotals.Add(chr.Solver)
			}
		}
		if chr.Passive {
			rep.Iterations = iter
			rep.FinalWorst = chr.WorstViolation()
			rep.ResidueChange = cumulative / baseNorm
			rep.FinalReport = chr
			return work, rep, nil
		}
		step, err := perturbationStep(ctx, charOpts.Core.Client, work, chr, opts)
		if err != nil {
			return nil, nil, err
		}
		cumulative += step
		if opts.Char.Core.OmegaMax == 0 && !opts.ReestimateOmegaMax {
			// Carry the certified ω_max into the next iteration instead of
			// re-running the estimation Arnoldi.
			charOpts.Core.OmegaMax = carryOmegaMax(chr.OmegaMax, step, baseNorm)
			carried = true
		}
		if opts.Checkpoint != nil {
			opts.Checkpoint(snapshotEnforce(iter+1, cumulative, charOpts.Core.OmegaMax, carried, rep, work))
		}
	}
	rep.Iterations = opts.MaxIters
	rep.FinalWorst = lastChr.WorstViolation()
	rep.ResidueChange = cumulative / baseNorm
	rep.FinalReport = lastChr
	return work, rep, fmt.Errorf("%w (worst σ still %g after %d iterations)",
		ErrEnforcementFailed, rep.FinalWorst, opts.MaxIters)
}

// freshOmegaMax re-runs the spectral-radius estimation Arnoldi on the
// (perturbed) model — used once per enforcement run to confirm a carried
// bound before it certifies passivity. Like Submit's startup estimate, it
// runs as a PhaseEig task of the run's client so the sweep obeys the
// shared pool's scheduling policy instead of running on the coordinator
// goroutine.
func freshOmegaMax(ctx context.Context, client *core.Client, m *statespace.Model, seed int64) (float64, error) {
	op, err := hamiltonian.New(m, hamiltonian.Scattering)
	if err != nil {
		return 0, err
	}
	if seed == 0 {
		seed = 1 // mirror core.Options.setDefaults so the estimate matches Submit's
	}
	var est float64
	err = client.RunBatch(ctx, core.PhaseEig, []func(int) error{func(int) error {
		e, err := core.EstimateOmegaMax(op, seed)
		if err != nil {
			return err
		}
		est = e
		return nil
	}})
	return est, err
}

// carryOmegaMax inflates a certified spectral-radius bound so it stays a
// bound after a residue perturbation of Frobenius norm step: eigenvalue
// motion under the rank-limited δC update is proportional to the relative
// residue change, so the bound grows by twice that ratio (safety factor)
// plus a small absolute floor covering the non-normal tail. The previous
// bound already carries the estimator's own 1.02 margin, and enforcement
// only shrinks violations inward. Because the eigenvalues of the
// non-normal Hamiltonian can in principle outrun any residue-norm bound,
// the carry is a heuristic — which is why EnforceContext confirms it with
// one fresh estimate before certifying passivity on its strength.
func carryOmegaMax(prev, step, baseNorm float64) float64 {
	rel := 0.0
	if baseNorm > 0 {
		rel = step / baseNorm
	}
	return prev * (1 + 2*rel + 1e-3)
}

// perturbationStep builds and applies one least-norm residue update.
// Returns ‖δC‖_F.
//
// The per-band constraint assembly (SVD at the band peak + one shifted
// solve per violated σ) fans out across the pool as PhaseConstraint tasks
// and joins; bands write index-assigned slots that are concatenated in
// band order, so the constraint set — and hence the update — is
// bit-identical to the sequential assembly under any worker count.
func perturbationStep(ctx context.Context, client *core.Client, work *statespace.Model, chr *Report, opts EnforceOptions) (float64, error) {
	n := work.Order()
	p := work.P
	nvars := n * p // δC is p×n, row-major flattening index i*n + s

	type constraint struct {
		row []float64
		rhs float64
	}
	viol := chr.Violations()
	perBand := make([][]constraint, len(viol))
	fns := make([]func(int) error, len(viol))
	for bi := range viol {
		w := viol[bi].PeakOmega
		fns[bi] = func(int) error {
			h := work.EvalJW(w)
			sv, err := mat.CSVDecompose(h)
			if err != nil {
				return err
			}
			// Precompute g_v = (jωI − A)⁻¹ B v for each violated σ.
			count := 0
			for sidx, sigma := range sv.S {
				if sigma <= 1 || count >= opts.MaxSigmaPerBand {
					break
				}
				count++
				u := make([]complex128, p)
				v := make([]complex128, p)
				for r := 0; r < p; r++ {
					u[r] = sv.U.At(r, sidx)
					v[r] = sv.V.At(r, sidx)
				}
				bv := make([]complex128, n)
				work.CApplyB(bv, v)
				g := make([]complex128, n)
				// (jωI − A) g = B v  ⇔  (A − jωI) g = −B v.
				for i := range bv {
					bv[i] = -bv[i]
				}
				if err := work.CSolveShiftedA(g, bv, complex(0, w)); err != nil {
					return err
				}
				// δσ = Σ_{i,s} δC[i,s]·Re(conj(u_i)·g_s); target σ+δσ = 1−margin.
				row := make([]float64, nvars)
				for i := 0; i < p; i++ {
					cu := real(u[i])
					cuIm := imag(u[i])
					for s := 0; s < n; s++ {
						// Re(conj(u_i)·g_s)
						row[i*n+s] = cu*real(g[s]) + cuIm*imag(g[s])
					}
				}
				perBand[bi] = append(perBand[bi], constraint{row: row, rhs: (1 - opts.Margin) - sigma})
			}
			return nil
		}
	}
	if err := client.RunBatch(ctx, core.PhaseConstraint, fns); err != nil {
		return 0, err
	}
	var cons []constraint
	for _, bc := range perBand {
		cons = append(cons, bc...)
	}
	if len(cons) == 0 {
		return 0, errors.New("passivity: violation bands reported but no σ > 1 found at peaks")
	}
	// Least-norm solution δc = Aᵀ(AAᵀ)⁻¹ r.
	k := len(cons)
	gram := mat.NewDense(k, k)
	for a := 0; a < k; a++ {
		for b := a; b < k; b++ {
			d := mat.Dot(cons[a].row, cons[b].row)
			gram.Set(a, b, d)
			gram.Set(b, a, d)
		}
	}
	// Tikhonov floor keeps near-parallel constraints solvable.
	trace := 0.0
	for a := 0; a < k; a++ {
		trace += gram.At(a, a)
	}
	ridge := 1e-12 * trace / float64(k)
	for a := 0; a < k; a++ {
		gram.Set(a, a, gram.At(a, a)+ridge)
	}
	rhs := make([]float64, k)
	for a := 0; a < k; a++ {
		rhs[a] = cons[a].rhs
	}
	f, err := mat.LUFactor(gram)
	if err != nil {
		return 0, fmt.Errorf("passivity: singular constraint Gram matrix: %w", err)
	}
	y := f.Solve(rhs)
	delta := make([]float64, nvars)
	for a := 0; a < k; a++ {
		mat.Axpy(y[a], cons[a].row, delta)
	}
	// Apply δC to the per-column residue blocks.
	off := 0
	for kcol := range work.Cols {
		col := &work.Cols[kcol]
		mOrd := col.Order()
		for i := 0; i < p; i++ {
			for s := 0; s < mOrd; s++ {
				col.C.Set(i, s, col.C.At(i, s)+delta[i*n+off+s])
			}
		}
		off += mOrd
	}
	// The residues changed in place: drop the cached packed kernel data so
	// the next structured-operator call rebuilds it.
	work.InvalidateKernels()
	return mat.Norm2(delta), nil
}

// residueNorm returns the Frobenius norm of the stacked residue matrices.
func residueNorm(m *statespace.Model) float64 {
	var ss float64
	for k := range m.Cols {
		f := m.Cols[k].C.FrobNorm()
		ss += f * f
	}
	return math.Sqrt(ss)
}
