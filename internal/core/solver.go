package core

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sort"

	"repro/internal/arnoldi"
	"repro/internal/hamiltonian"
)

// hamOp adapts hamiltonian.Op to the arnoldi.Operator interface (plain
// apply, used for the ω_max estimate).
type hamOp struct{ op *hamiltonian.Op }

func (h hamOp) Dim() int { return h.op.Dim() }
func (h hamOp) Apply(y, x []complex128) error {
	h.op.Apply(y, x)
	return nil
}

// EstimateOmegaMax returns the magnitude of the largest Hamiltonian
// eigenvalue, computed with a plain (non-inverted) Arnoldi iteration on M
// (paper Sec. IV-A), inflated by a small safety margin.
func EstimateOmegaMax(op *hamiltonian.Op, seed int64) (float64, error) {
	cfg := arnoldi.Config{MaxDim: 40, Rng: newRand(seed)}
	v, err := arnoldi.LargestMagnitude(hamOp{op}, cfg, 8, 1e-4)
	if err != nil {
		return 0, fmt.Errorf("core: ω_max estimation failed: %w", err)
	}
	return 1.02 * cmplx.Abs(v), nil
}

// baselineOmegaMax returns the top of the baselines' search band:
// opts.OmegaMax, or the estimate on the calling goroutine when it is 0. It
// rejects a band that is empty above opts.OmegaMin.
func baselineOmegaMax(op *hamiltonian.Op, opts Options) (float64, error) {
	omegaMax := opts.OmegaMax
	if omegaMax == 0 {
		est, err := EstimateOmegaMax(op, opts.Seed)
		if err != nil {
			return 0, err
		}
		omegaMax = est
	}
	if omegaMax <= opts.OmegaMin {
		return 0, fmt.Errorf("core: empty band [%g, %g]", opts.OmegaMin, omegaMax)
	}
	return omegaMax, nil
}

// runShift executes one single-shift iteration S(jω, ρ₀) on a freshly
// factored shift-invert operator. When a shift collides with an eigenvalue
// (a crossing sits exactly at ω), ω is nudged by a tiny relative offset
// and the shift is factored once more, on either path.
//
// When HalfRouted takes the shift, the iteration runs on the half-size
// reciprocal path, in the squared spectral space μ = λ² at shift τ = −ω².
// The λ-disk |λ − jω| ≤ ρ maps into the μ-disk |μ + ω²| ≤ ρ·(ρ + 2ω)
// (since μ − τ = (λ − jω)(λ + jω) and |λ + jω| ≤ |λ − jω| + 2ω), so
// running the same certified-disk iteration at τ with the enlarged radius
// covers every Hamiltonian eigenvalue the full-size shift would certify.
// Found eigenvalues map back through the canonical square root (Im λ ≥ 0 —
// a genuine eigenvalue of M, which is symmetric under λ ↦ −λ, and the
// representative the crossing pipeline wants; see mapHalfResult). The
// returned eigenvalue estimates feed the same full-size refinement
// pipeline either way.
func runShift(op *hamiltonian.Op, omega, rho0 float64, params arnoldi.SingleShiftParams) (*arnoldi.SingleShiftResult, error) {
	nudge := omega * 1e-9
	if nudge == 0 {
		nudge = rho0 * 1e-9
	}
	if op.HalfRouted(omega, rho0) {
		so, err := op.ShiftInvertHalf(op.SweepTheta(omega, rho0))
		if err != nil {
			if so, err = op.ShiftInvertHalf(op.SweepTheta(omega+nudge, rho0)); err != nil {
				return nil, err
			}
		}
		// τ = −ω² is real and N is a real operator, so the μ-space
		// iteration runs in real arithmetic end to end.
		mres, err := arnoldi.SingleShiftReal(so, rho0*(rho0+2*omega), params)
		if err != nil {
			return nil, err
		}
		return mapHalfResult(mres, omega), nil
	}
	so, err := op.ShiftInvert(complex(0, omega))
	if err != nil {
		if so, err = op.ShiftInvert(complex(0, omega+nudge)); err != nil {
			return nil, err
		}
	}
	return arnoldi.SingleShift(so, rho0, params)
}

// mapHalfResult converts a μ-space (μ = λ²) single-shift result to
// λ-space. Radius: inverting ρ_μ = ρ_λ·(ρ_λ + 2ω) gives exactly
// ρ_λ = ρ_μ / (√(ω² + ρ_μ) + ω), additionally capped at
// HalfSafeFraction·ω — a grown μ-certification must never claim the
// near-origin region where the squared spectrum cannot resolve pairs
// (shrinking a certified disk is always sound). Residuals: a backward
// error δμ on μ perturbs λ = √μ by ≈ δμ/(2|λ|); at λ ≈ 0 the map
// degenerates to √δμ.
func mapHalfResult(mres *arnoldi.SingleShiftResult, omega float64) *arnoldi.SingleShiftResult {
	out := &arnoldi.SingleShiftResult{
		Theta:     complex(0, omega),
		Restarts:  mres.Restarts,
		OpApplies: mres.OpApplies,
		Exhausted: mres.Exhausted,
	}
	rhoMu := mres.Radius
	out.Radius = rhoMu / (math.Sqrt(omega*omega+rhoMu) + omega)
	if lim := hamiltonian.HalfSafeFraction * omega; out.Radius > lim {
		out.Radius = lim
	}
	if len(mres.Eigenvalues) == 0 {
		return out
	}
	out.Eigenvalues = make([]complex128, len(mres.Eigenvalues))
	out.ResidualsM = make([]float64, len(mres.Eigenvalues))
	for i, mu := range mres.Eigenvalues {
		lam := cmplx.Sqrt(mu)
		if imag(lam) < 0 {
			lam = -lam
		}
		out.Eigenvalues[i] = lam
		resid := 0.0
		if i < len(mres.ResidualsM) {
			if a := 2 * cmplx.Abs(lam); a > 0 {
				resid = mres.ResidualsM[i] / a
			} else {
				resid = math.Sqrt(mres.ResidualsM[i])
			}
		}
		out.ResidualsM[i] = resid
	}
	return out
}

// collect turns the per-shift eigenvalue sets into the final Result fields:
// deduplicated eigenvalues and imaginary-axis crossings. Near-axis
// candidates are polished with structured inverse iteration before
// classification: Ritz values of the non-normal Hamiltonian can carry
// errors far above the residual tolerance, which would otherwise produce
// phantom or missing crossings.
//
// The refinements (and the canonical polish after them) run as PhaseRefine
// task batches under the given client: each one re-factors a shift-invert
// operator, which would otherwise serialize the tail of a parallel solve —
// and on a shared pool the refinement tails of N jobs finishing together
// obey the same priority/fairness/admission policy as every other compute
// phase instead of oversubscribing the machine on free goroutines. Each
// task writes only its own index-assigned slot, so the refined values (and
// hence the reported crossings) are bit-identical under any worker count.
// The tail is not cancelable (the solve's context governs the shifts, not
// this post-completion work — see Job.Wait); the returned error is
// non-nil only when the pool closed underneath the batch. Per-eigenvalue
// refinement failures fall back to the unrefined estimate as before.
func collect(client *Client, res *Result, op *hamiltonian.Op, axisTol float64) error {
	scale := res.OmegaMax
	if scale == 0 {
		scale = 1
	}
	// Dedup raw eigenvalues across overlapping disks, keeping the
	// per-eigenvalue residuals aligned.
	type eig struct {
		v complex128
		r float64
	}
	pairs := make([]eig, len(res.Eigenvalues))
	for i, v := range res.Eigenvalues {
		pairs[i].v = v
		if i < len(res.eigResiduals) {
			pairs[i].r = res.eigResiduals[i]
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if imag(pairs[i].v) != imag(pairs[j].v) {
			return imag(pairs[i].v) < imag(pairs[j].v)
		}
		return real(pairs[i].v) < real(pairs[j].v)
	})
	kept := pairs[:0]
	for _, p := range pairs {
		if len(kept) > 0 && cmplx.Abs(p.v-kept[len(kept)-1].v) <= 1e-9*scale {
			continue
		}
		kept = append(kept, p)
	}
	res.Eigenvalues = res.Eigenvalues[:0]
	for _, p := range kept {
		res.Eigenvalues = append(res.Eigenvalues, p.v)
	}

	floor := 1e-9 * scale
	var candidates []complex128
	for _, p := range kept {
		// Candidate selection: near the axis within the coarse window, OR
		// with a real part hidden below the eigenvalue's own error bar
		// (residual in M) — ill-conditioned eigenvalues can sit far from
		// the axis in raw Ritz form and still be true crossings.
		if hamiltonian.ClassifyImag(p.v, 1e-3, floor) ||
			(p.r > 0 && math.Abs(real(p.v)) <= 1e4*p.r) {
			candidates = append(candidates, p.v)
		}
	}
	refined := make([]complex128, len(candidates))
	resids := make([]float64, len(candidates))
	fns := make([]func(int) error, len(candidates))
	for i, v := range candidates {
		i, v := i, v
		fns[i] = func(int) error {
			r, resid, err := op.RefineEig(v, 6)
			if err != nil {
				r, resid = v, 0 // keep the unrefined estimate, no error bar
			}
			refined[i], resids[i] = r, resid
			return nil
		}
	}
	//lint:ignore ctxflow the refinement tail is deliberately detached: a cancellation racing completion must not discard a finished result (see collect's contract)
	if err := client.RunBatch(context.Background(), PhaseRefine, fns); err != nil {
		return err
	}
	// Final arbiter: the physical boundary test at the refined frequency.
	// Eigenvalue-based classification (axisTol) fast-paths clear cases;
	// everything else is decided by IsCrossing, which is insensitive to
	// eigenvalue conditioning. The IsCrossing evaluations each factor a
	// shift-invert operator, so they too fan out as PhaseRefine tasks; the
	// verdicts land in index-assigned slots and are collected in candidate
	// order, keeping the crossing list schedule-independent.
	keep := make([]bool, len(refined))
	var arbiter []func(int) error
	for i, r := range refined {
		w := math.Abs(imag(r))
		if hamiltonian.ClassifyImag(r, 1e-12, floor) {
			keep[i] = true
			continue
		}
		if !hamiltonian.ClassifyImagWithResidual(r, resids[i], axisTol, floor) {
			continue
		}
		i, w := i, w
		arbiter = append(arbiter, func(int) error {
			ok, err := op.IsCrossing(w, 0)
			keep[i] = err == nil && ok
			return nil
		})
	}
	//lint:ignore ctxflow same detached-tail contract as the refinement batch above
	if err := client.RunBatch(context.Background(), PhaseRefine, arbiter); err != nil {
		return err
	}
	var crossings []float64
	for i, r := range refined {
		if keep[i] {
			crossings = append(crossings, math.Abs(imag(r)))
		}
	}
	sort.Float64s(crossings)
	out := crossings[:0]
	for _, w := range crossings {
		if len(out) > 0 && w-out[len(out)-1] <= 3e-9*scale {
			continue
		}
		out = append(out, w)
	}
	if err := canonicalPolish(client, out, op, scale); err != nil {
		return err
	}
	// Polish can collapse two barely-distinct candidates (just outside the
	// pre-polish dedup window) onto the exact same eigenvalue; dedup again.
	sort.Float64s(out)
	final := out[:0]
	for _, w := range out {
		if len(final) > 0 && w-final[len(final)-1] <= 3e-9*scale {
			continue
		}
		final = append(final, w)
	}
	res.Crossings = final
	return nil
}

// collectStandalone runs the collect tail of the pool-less baselines
// (serial bisection, static grid) on an ephemeral private pool of the
// given width, so the refinement code path is the same one the pooled
// solves exercise.
func collectStandalone(res *Result, op *hamiltonian.Op, axisTol float64, threads int) error {
	p := NewPool(threads)
	defer p.Close()
	return collect(p.NewClient(ClientOptions{}), res, op, axisTol)
}

// canonicalPolish re-refines each accepted crossing from a quantized seed
// frequency. The refined values entering here depend (in their last bits)
// on which shift first certified the eigenvalue — and the shift schedule is
// timing-dependent for any parallel or pooled solve. Snapping the seed to a
// relative grid (far coarser than the cross-schedule scatter, kept finer
// than a quarter of the closest crossing separation) and re-running the
// deterministic structured refinement makes the reported value a function
// of the model alone: crossings come out bit-identical across thread
// counts and across standalone-vs-fleet scheduling. A polish that wanders
// off to a different eigenvalue (clustered spectra) is discarded in favor
// of the original refined value.
//
// Crossings that share a grid cell — two TRUE crossings separated by less
// than a cell width, a violation band physically narrower than the probe
// resolution — would collapse onto the cell's single canonical seed and
// merge. They instead go through an unquantized multiplicity pass first:
// each member refines from its own frequency to resolve which eigenvalue
// it belongs to, and the resolved value is snapped to a fine sub-grid
// (still far above cross-schedule scatter) for its canonical seed, so
// distinct in-cell crossings keep distinct reported values while genuine
// duplicates still merge.
//
// The polishes run as PhaseRefine batches under the job's client; each
// task reads and writes only its own crossing slot, so scheduling cannot
// influence the result.
func canonicalPolish(client *Client, crossings []float64, op *hamiltonian.Op, scale float64) error {
	if len(crossings) == 0 {
		return nil
	}
	// The grid must NOT adapt to the observed separations: near-duplicate
	// candidates of one eigenvalue appear schedule-dependently just above
	// the dedup window, and any quantum derived from them would shift every
	// other crossing's seed between runs.
	quantum := 1e-7 * scale
	// Fine sub-grid for multi-member cells: coarse enough to absorb the
	// cross-schedule scatter of the refined values (≪ 1e-9·scale, the
	// eigenvalue dedup window), fine enough that crossings surviving the
	// 3e-9·scale crossing dedup land in distinct fine cells.
	fineQuantum := 1e-9 * scale
	cellOf := func(w float64) int64 { return int64(math.Round(w / quantum)) }
	members := make(map[int64]int, len(crossings))
	for _, w := range crossings {
		members[cellOf(w)]++
	}
	seeds := make([]float64, len(crossings))
	guards := make([]float64, len(crossings))
	var multiplicity []func(int) error
	for i, w := range crossings {
		if members[cellOf(w)] == 1 {
			seeds[i] = math.Round(w/quantum) * quantum
			guards[i] = 2 * quantum
			continue
		}
		i, w := i, w
		seeds[i] = math.NaN() // stays NaN if the multiplicity pass fails
		guards[i] = 2 * fineQuantum
		multiplicity = append(multiplicity, func(int) error {
			r, _, err := op.RefineEig(complex(0, w), 6)
			if err != nil {
				return nil
			}
			pw := math.Abs(imag(r))
			if math.Abs(pw-w) > 2*quantum {
				return nil // wandered out of the cell entirely
			}
			seeds[i] = math.Round(pw/fineQuantum) * fineQuantum
			return nil
		})
	}
	//lint:ignore ctxflow canonical polish is part of the detached refinement tail: it must finish once collect has committed to reporting
	if err := client.RunBatch(context.Background(), PhaseRefine, multiplicity); err != nil {
		return err
	}
	fns := make([]func(int) error, len(crossings))
	for i := range crossings {
		i := i
		fns[i] = func(int) error {
			wq := seeds[i]
			if math.IsNaN(wq) {
				return nil // keep the original refined value
			}
			r, _, err := op.RefineEig(complex(0, wq), 6)
			if err != nil {
				return nil // keep the original refined value
			}
			pw := math.Abs(imag(r))
			// A legitimate polish lands within a seed cell of where it
			// started; a larger jump means the iteration converged to a
			// different (neighboring) eigenvalue — keep the original refined
			// value. The jump is measured from the SEED, not the member's
			// original value: in a multi-member cell the seed is the
			// multiplicity-resolved position, and a member that entered as a
			// schedule-dependent phantom of its cell-mate sits a whole
			// phantom-offset away from its own resolved seed. Guarding on
			// the original value would veto exactly the polish that collapses
			// the phantom onto the true eigenvalue (where the final dedup
			// merges it). For in-cell pairs the guard is 2·fineQuantum, below
			// the 3e-9·scale minimum true separation, so a polish that slides
			// onto the pair's other member is still rejected.
			if math.Abs(pw-wq) > guards[i] {
				return nil
			}
			crossings[i] = pw
			return nil
		}
	}
	//lint:ignore ctxflow canonical polish is part of the detached refinement tail: it must finish once collect has committed to reporting
	return client.RunBatch(context.Background(), PhaseRefine, fns)
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
