package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/hamiltonian"
)

// SolveStaticGrid is the naive parallel strategy dismissed in Sec. IV: the
// shifts are pre-distributed on a regular grid and all of them are
// processed, regardless of whether earlier disks already cover them. Gaps
// left between the fixed disks are closed with a serial bisection pass.
// Its parallel efficiency is poor because workers burn time on shifts whose
// intervals a neighbouring disk has already swallowed — the ablation bench
// quantifies exactly that wasted work against the dynamic scheduler.
func SolveStaticGrid(op *hamiltonian.Op, opts Options) (*Result, error) {
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

	n := opts.Kappa * opts.Threads
	if n < 2 {
		n = 2
	}
	w := (omegaMax - opts.OmegaMin) / float64(n)
	type job struct {
		idx   int
		omega float64
		rho0  float64
	}
	jobs := make(chan job)
	type out struct {
		rec    ShiftRecord
		eigs   []complex128
		residM []float64
		rst    int
		app    int
		lo     float64
		hi     float64
		rad    float64
		omg    float64
	}
	var mu sync.Mutex
	var outs []out
	var firstErr error

	var wg sync.WaitGroup
	for t := 0; t < opts.Threads; t++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for j := range jobs {
				params := opts.Arnoldi
				params.Seed = opts.Seed*1_000_003 + int64(j.idx)*7919 + 1
				sres, err := runShift(op, j.omega, j.rho0, params)
				mu.Lock()
				if err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("core: shift ω=%g: %w", j.omega, err)
					}
				} else {
					outs = append(outs, out{
						rec: ShiftRecord{Omega: j.omega, Radius: sres.Radius,
							NEigs: len(sres.Eigenvalues), Worker: worker},
						eigs:   sres.Eigenvalues,
						residM: sres.ResidualsM,
						rst:    sres.Restarts,
						app:    sres.OpApplies,
						rad:    sres.Radius,
						omg:    j.omega,
					})
				}
				mu.Unlock()
			}
		}(t)
	}
	for v := 0; v < n; v++ {
		lo := opts.OmegaMin + float64(v)*w
		omega := lo + w/2
		if v == 0 {
			omega = opts.OmegaMin
		}
		if v == n-1 {
			omega = omegaMax
		}
		jobs <- job{idx: v, omega: omega, rho0: 0.5 * opts.Alpha * w * 2}
	}
	close(jobs)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	// Compute residual gaps and close them serially.
	type gapT struct{ lo, hi float64 }
	gaps := []gapT{{opts.OmegaMin, omegaMax}}
	for _, o := range outs {
		var next []gapT
		for _, g := range gaps {
			for _, rem := range subtract(g.lo, g.hi, o.omg-o.rad, o.omg+o.rad) {
				next = append(next, gapT{rem[0], rem[1]})
			}
		}
		gaps = next
		res.Shifts = append(res.Shifts, o.rec)
		res.Eigenvalues = append(res.Eigenvalues, o.eigs...)
		res.eigResiduals = append(res.eigResiduals, o.residM...)
		res.Stats.Restarts += o.rst
		res.Stats.OpApplies += o.app
		res.Stats.ShiftsProcessed++
	}
	idx := n
	for len(gaps) > 0 {
		if res.Stats.ShiftsProcessed >= opts.MaxShifts {
			return nil, fmt.Errorf("core: shift budget %d exhausted", opts.MaxShifts)
		}
		g := gaps[len(gaps)-1]
		gaps = gaps[:len(gaps)-1]
		mid := 0.5 * (g.lo + g.hi)
		params := opts.Arnoldi
		params.Seed = opts.Seed*1_000_003 + int64(idx)*7919 + 1
		idx++
		sres, err := runShift(op, mid, 0.5*opts.Alpha*(g.hi-g.lo), params)
		if err != nil {
			return nil, fmt.Errorf("core: shift ω=%g: %w", mid, err)
		}
		res.Shifts = append(res.Shifts, ShiftRecord{Omega: mid, Radius: sres.Radius, NEigs: len(sres.Eigenvalues)})
		res.Eigenvalues = append(res.Eigenvalues, sres.Eigenvalues...)
		res.eigResiduals = append(res.eigResiduals, sres.ResidualsM...)
		res.Stats.Restarts += sres.Restarts
		res.Stats.OpApplies += sres.OpApplies
		res.Stats.ShiftsProcessed++
		var next []gapT
		for _, gg := range gaps {
			for _, rem := range subtract(gg.lo, gg.hi, mid-sres.Radius, mid+sres.Radius) {
				next = append(next, gapT{rem[0], rem[1]})
			}
		}
		for _, rem := range subtract(g.lo, g.hi, mid-sres.Radius, mid+sres.Radius) {
			next = append(next, gapT{rem[0], rem[1]})
		}
		gaps = next
	}
	//lint:ignore detfloat elapsed-time telemetry only; it never feeds numeric state
	res.Stats.Elapsed = time.Since(start)
	if err := collectStandalone(res, op, opts.AxisTol, opts.Threads); err != nil {
		return nil, err
	}
	return res, nil
}
