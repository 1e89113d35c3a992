package arnoldi

import (
	"fmt"
	"math"
	"math/cmplx"
	"sort"

	"repro/internal/mat"
)

// SingleShiftParams configures the S(ϑ, ρ₀) iteration (paper Sec. III).
type SingleShiftParams struct {
	// NWanted is n_ϑ, the number of eigenvalues stabilized per shift
	// (paper: 4–6). Default 5.
	NWanted int
	// MaxDim is the Krylov dimension d (paper: 60).
	MaxDim int
	// MaxRestarts bounds the number of explicit restarts. Default 12.
	MaxRestarts int
	// Tol is the relative Ritz residual convergence threshold.
	Tol float64
	// Seed drives the random restart vectors of this shift.
	Seed int64
	// Yield, when non-nil, is called at the top of every restart sweep
	// after the first — the sweep's natural checkpoint boundary. It is a
	// cooperative preemption point: the multi-shift scheduler uses it to
	// let a long batch-class shift execute queued interactive-class tasks
	// mid-shift instead of holding a worker until the shift completes. The
	// callback must not mutate solver state; it only borrows the calling
	// goroutine, so the iteration resumes bit-identically when it returns.
	Yield func()
}

// Validate rejects negative parameter values, which setDefaults would pass
// through and which silently break the iteration (a negative NWanted makes
// every certification count trivially satisfied, a negative MaxDim runs
// zero Arnoldi steps, a negative Tol never converges anything).
func (p *SingleShiftParams) Validate() error {
	switch {
	case p.NWanted < 0:
		return fmt.Errorf("arnoldi: NWanted must be ≥ 0, got %d", p.NWanted)
	case p.MaxDim < 0:
		return fmt.Errorf("arnoldi: MaxDim must be ≥ 0, got %d", p.MaxDim)
	case p.MaxRestarts < 0:
		return fmt.Errorf("arnoldi: MaxRestarts must be ≥ 0, got %d", p.MaxRestarts)
	case !(p.Tol >= 0) || math.IsInf(p.Tol, 1):
		// !(x ≥ 0) also catches NaN, which every plain comparison passes.
		return fmt.Errorf("arnoldi: Tol must be finite and ≥ 0, got %g", p.Tol)
	}
	return nil
}

func (p *SingleShiftParams) setDefaults() {
	if p.NWanted == 0 {
		p.NWanted = 5
	}
	if p.MaxDim == 0 {
		p.MaxDim = 60
	}
	if p.MaxRestarts == 0 {
		p.MaxRestarts = 12
	}
	if p.Tol == 0 {
		p.Tol = 1e-9
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// SingleShiftResult is the output of the S operator: the complete set of
// eigenvalues inside the certified disk C_{ϑ,ρ}, the final radius ρ
// (which may be larger or smaller than ρ₀), and work counters.
type SingleShiftResult struct {
	Theta       complex128
	Eigenvalues []complex128 // all eigenvalues with |λ−ϑ| < Radius
	// ResidualsM[i] is ‖M·x − λ_i·x‖ for the returned eigenpair, measured
	// on the ORIGINAL operator when the ShiftInverter exposes it (see
	// BaseOperator); 0 when unavailable. Callers use it as the error bar
	// of Eigenvalues[i] — shift-invert Ritz residuals certify μ, not λ,
	// and badly conditioned eigenvalues can be off by orders of magnitude
	// more than the μ tolerance suggests.
	ResidualsM []float64
	Radius     float64
	Restarts   int
	OpApplies  int
	// Exhausted reports that the Krylov process resolved an invariant
	// subspace containing the full reachable spectrum near the shift.
	Exhausted bool
}

// ShiftInverter abstracts the per-shift factored operator (M − ϑI)⁻¹
// (hamiltonian.ShiftOp satisfies it directly).
type ShiftInverter interface {
	Operator
	Theta() complex128
}

// BaseOperator is optionally implemented by a ShiftInverter that can also
// apply the original (non-inverted) operator M; SingleShift then reports
// per-eigenvalue residuals in M.
type BaseOperator interface {
	ApplyBase(y, x []complex128) error
}

// SingleShift runs the restarted, deflated shift-invert Arnoldi iteration
// around ϑ = inv.Theta() and returns ({λ_k}, ρ) per the paper's S operator:
//
//   - eigenvalues are stabilized in order of proximity to ϑ;
//   - if more than NWanted stabilize inside the current disk, the radius is
//     reduced to enclose exactly NWanted and the rest are discarded;
//   - if some of the NWanted stabilized eigenvalues fall outside ρ₀, the
//     radius grows to the largest converged distance;
//   - the certified radius never exceeds a safety fraction of the distance
//     to the nearest unconverged Ritz estimate, so that the returned set is
//     complete within C_{ϑ,ρ}.
func SingleShift(inv ShiftInverter, rho0 float64, params SingleShiftParams) (*SingleShiftResult, error) {
	return singleShift[complex128](complexLane{inv}, inv.Theta(), rho0, params)
}

// singleShift is the restart and certification driver shared by both
// lanes: SingleShift and SingleShiftReal differ only in the lane, never in
// the rules.
func singleShift[T scalar](l lane[T], theta complex128, rho0 float64, params SingleShiftParams) (*SingleShiftResult, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	params.setDefaults()
	res := &SingleShiftResult{Theta: theta, Radius: rho0}
	cfg := Config{MaxDim: params.MaxDim, Tol: params.Tol, Rng: newRng(params.Seed)}

	type conv struct {
		lambda complex128
		dist   float64
		residM float64
	}
	var converged []conv
	var locked [][]T
	// dedupTol is relative to the local frequency scale.
	scale := cmplx.Abs(theta) + rho0
	if scale == 0 {
		scale = 1
	}
	dedupTol := 1e-7 * scale

	minUnconv := math.Inf(1)
	stagnant := 0
	var warmStart []T
	for restart := 0; restart < params.MaxRestarts; restart++ {
		if params.Yield != nil && restart > 0 {
			params.Yield()
		}
		res.Restarts++
		start := l.randomStart(cfg.Rng)
		if warmStart != nil {
			// Explicit restart toward the closest unconverged Ritz vector,
			// with a small random component to escape invariant traps.
			for i := range start {
				start[i] = warmStart[i] + 0.02*start[i]
			}
		}
		// Early within-sweep exit: most of the sweep cost is basis
		// orthogonalization, so stop as soon as the projected problem
		// certifies NWanted eigenvalues (or certifies the initial disk
		// empty once the subspace is rich enough).
		convDists := make([]float64, len(converged))
		for i, c := range converged {
			convDists[i] = c.dist
		}
		cfg.CheckEvery = 10
		cfg.StopEarly = func(h *mat.CDense, hNext float64, steps int) bool {
			vals, lastAbs, err := mat.HessenbergRitzEstimates(h)
			if err != nil {
				return false
			}
			minU := math.Inf(1)
			var newConv []float64
			for idx, mu := range vals {
				if mu == 0 {
					continue
				}
				dist := 1 / cmplx.Abs(mu)
				resid := hNext * lastAbs[idx]
				if resid <= params.Tol*cmplx.Abs(mu) {
					newConv = append(newConv, dist)
				} else if dist < minU {
					minU = dist
				}
			}
			certNow := 0.9 * minU
			count := 0
			for _, d := range convDists {
				if d < certNow {
					count++
				}
			}
			for _, d := range newConv {
				if d < certNow {
					count++
				}
			}
			if count >= params.NWanted {
				return true
			}
			// Emptiness certification needs a richer subspace before the
			// unconverged Ritz estimates can be trusted.
			return steps >= 30 && certNow >= 1.05*rho0
		}
		fac, err := run(l, start, locked, cfg)
		if err == ErrBreakdownEmpty {
			res.Exhausted = true
			break
		}
		if err != nil {
			return nil, err
		}
		res.OpApplies += fac.OpApplies
		pairs, err := fac.RitzPairs()
		if err != nil {
			return nil, err
		}
		// Ritz vectors are lifted only where they are read: each converged
		// one (locked, and measured for its base residual) and the
		// closest unconverged one (the next warm start).
		minUnconv = math.Inf(1)
		closest := -1
		newConv := 0
		ghosts := 0
		for idx, p := range pairs {
			if p.Value == 0 {
				continue
			}
			lambda := theta + 1/p.Value
			dist := 1 / cmplx.Abs(p.Value)
			if p.Residual <= params.Tol*cmplx.Abs(p.Value) {
				dup := false
				for _, c := range converged {
					if cmplx.Abs(c.lambda-lambda) <= dedupTol {
						dup = true
						break
					}
				}
				// Lock the vector either way: a duplicate is a numerical
				// "ghost" of an already-locked direction (the locked Ritz
				// vector is only tol-accurate); purging it keeps later
				// sweeps exploring fresh directions.
				x := fac.RitzVector(idx)
				locked = l.lock(locked, x)
				if !dup {
					converged = append(converged, conv{
						lambda: lambda,
						dist:   dist,
						residM: l.baseResidual(lambda, x),
					})
					newConv++
				} else {
					ghosts++
				}
				continue
			}
			if dist < minUnconv {
				minUnconv = dist
				closest = idx
			}
		}
		warmStart = nil
		if closest >= 0 {
			warmStart = l.restartDirection(fac.RitzVector(closest))
		}
		if fac.Invariant && newConv == 0 {
			res.Exhausted = true
			break
		}
		if newConv == 0 && ghosts == 0 {
			stagnant++
			if stagnant >= 3 {
				break
			}
		} else {
			stagnant = 0
		}
		// Early exit uses the same certification rule as the final radius:
		// only eigenvalues closer than 0.9× the nearest unconverged Ritz
		// estimate are certifiable. Stop when NWanted of them are, or when
		// the certifiable region already covers the whole initial disk.
		certNow := 0.9 * minUnconv
		certCount := 0
		for _, c := range converged {
			if c.dist < certNow {
				certCount++
			}
		}
		if certCount >= params.NWanted {
			break
		}
		if restart >= 1 && certNow >= rho0 {
			break
		}
	}

	sort.Slice(converged, func(i, j int) bool { return converged[i].dist < converged[j].dist })

	// Certified radius: nothing unconverged may hide inside the disk.
	certified := math.Inf(1)
	if !math.IsInf(minUnconv, 1) {
		certified = 0.9 * minUnconv
	}
	if res.Exhausted && math.IsInf(certified, 1) {
		// Entire reachable spectrum resolved: certify everything seen.
		certified = math.Inf(1)
	}

	rho := rho0
	nw := params.NWanted
	if len(converged) > nw {
		// Shrink: enclose exactly NWanted, midway to the next one out.
		rho = 0.5 * (converged[nw-1].dist + converged[nw].dist)
	} else if len(converged) > 0 {
		// Grow to the farthest converged eigenvalue (paper rule), bounded
		// by certification.
		far := converged[len(converged)-1].dist
		if far > rho {
			rho = far * (1 + 1e-9)
		}
	}
	if rho > certified {
		rho = certified
	}
	if math.IsInf(rho, 1) {
		// Fully resolved spectrum: choose a radius covering all converged.
		if len(converged) > 0 {
			rho = converged[len(converged)-1].dist * (1 + 1e-9)
			if rho < rho0 {
				rho = rho0
			}
		} else {
			rho = rho0
		}
	}
	for _, c := range converged {
		if c.dist <= rho {
			res.Eigenvalues = append(res.Eigenvalues, c.lambda)
			res.ResidualsM = append(res.ResidualsM, c.residM)
		}
	}
	res.Radius = rho
	return res, nil
}
