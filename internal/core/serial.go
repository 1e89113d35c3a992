package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/hamiltonian"
)

// SolveSerialBisection is the serial baseline of Sec. III (ref. [9]): the
// band edges are processed first, then the solver repeatedly places a shift
// at the midpoint of the widest still-uncovered gap (paper Eq. 10 /
// Fig. 2) until the union of convergence disks covers [ω_min, ω_max]. Each
// step depends on the radii of the previous ones, which is exactly the
// data dependency that prevents naive parallelization.
func SolveSerialBisection(op *hamiltonian.Op, opts Options) (*Result, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts.setDefaults()
	//lint:ignore detfloat elapsed-time telemetry only; it never feeds numeric state
	start := time.Now()
	res := &Result{}

	omegaMax, err := baselineOmegaMax(op, opts)
	if err != nil {
		return nil, err
	}
	res.OmegaMax = omegaMax

	type gap struct{ lo, hi float64 }
	gaps := []gap{{opts.OmegaMin, omegaMax}}
	shiftIdx := 0

	process := func(omega, rho0 float64) error {
		params := opts.Arnoldi
		params.Seed = opts.Seed*1_000_003 + int64(shiftIdx)*7919 + 1
		shiftIdx++
		sres, err := runShift(op, omega, rho0, params)
		if err != nil {
			return fmt.Errorf("core: shift ω=%g: %w", omega, err)
		}
		res.Shifts = append(res.Shifts, ShiftRecord{
			Omega: omega, Radius: sres.Radius, NEigs: len(sres.Eigenvalues),
		})
		res.Eigenvalues = append(res.Eigenvalues, sres.Eigenvalues...)
		res.eigResiduals = append(res.eigResiduals, sres.ResidualsM...)
		res.Stats.Restarts += sres.Restarts
		res.Stats.OpApplies += sres.OpApplies
		res.Stats.ShiftsProcessed++
		// Subtract the disk from all gaps.
		var next []gap
		for _, g := range gaps {
			for _, rem := range subtract(g.lo, g.hi, omega-sres.Radius, omega+sres.Radius) {
				next = append(next, gap{rem[0], rem[1]})
			}
		}
		gaps = next
		return nil
	}

	// Edges first (Fig. 2: ϑ1 and ϑ2 at the band extrema).
	bandW := omegaMax - opts.OmegaMin
	if err := process(opts.OmegaMin, opts.Alpha*bandW/float64(2*opts.Kappa)); err != nil {
		return nil, err
	}
	if len(gaps) > 0 {
		if err := process(omegaMax, opts.Alpha*bandW/float64(2*opts.Kappa)); err != nil {
			return nil, err
		}
	}
	// Bisection on the widest remaining gap.
	for len(gaps) > 0 {
		if res.Stats.ShiftsProcessed >= opts.MaxShifts {
			return nil, fmt.Errorf("core: shift budget %d exhausted", opts.MaxShifts)
		}
		sort.Slice(gaps, func(i, j int) bool { return gaps[i].hi-gaps[i].lo > gaps[j].hi-gaps[j].lo })
		g := gaps[0]
		mid := 0.5 * (g.lo + g.hi)
		if err := process(mid, 0.5*opts.Alpha*(g.hi-g.lo)); err != nil {
			return nil, err
		}
	}
	//lint:ignore detfloat elapsed-time telemetry only; it never feeds numeric state
	res.Stats.Elapsed = time.Since(start)
	if err := collectStandalone(res, op, opts.AxisTol, opts.Threads); err != nil {
		return nil, err
	}
	return res, nil
}
