package core

import (
	"context"

	"repro/internal/hamiltonian"
)

// interval is one tentative search interval Ĩ_ν with its tentative shift
// ϑ̃_ν (paper Sec. IV-A). Intervals held by the pool queue carry a
// reference to their owning Job; per job they are pairwise disjoint and
// their union is exactly the part of the band not yet covered by completed
// or in-flight work.
type interval struct {
	id       int
	job      *Job
	lo, hi   float64
	shift    float64
	edgeLeft bool // shift pinned to the left band edge (ν = 1)
	edgeRite bool // shift pinned to the right band edge (ν = N)
}

func (iv *interval) width() float64 { return iv.hi - iv.lo }

// subtract returns the parts of [lo, hi] not covered by [dLo, dHi]
// (0, 1 or 2 sub-intervals; degenerate slivers below 1e-12 of the width
// are dropped).
func subtract(lo, hi, dLo, dHi float64) [][2]float64 {
	eps := 1e-12 * (hi - lo)
	var out [][2]float64
	if dHi <= lo || dLo >= hi {
		return [][2]float64{{lo, hi}}
	}
	if dLo > lo+eps {
		out = append(out, [2]float64{lo, dLo})
	}
	if dHi < hi-eps {
		out = append(out, [2]float64{dHi, hi})
	}
	return out
}

// initialIntervals subdivides [ωmin, ωmax] into N = κT adjacent intervals
// and assigns tentative shifts per Sec. IV-A: the first and last shifts sit
// at the band edges, interior ones at midpoints. The pick order implements
// the startup rule Eqs. 13–15 (extrema first: ν = 1, N, 2, 3, …).
func initialIntervals(omegaMin, omegaMax float64, n int) []*interval {
	if n < 2 {
		n = 2
	}
	w := (omegaMax - omegaMin) / float64(n)
	ivs := make([]*interval, n)
	for v := 0; v < n; v++ {
		lo := omegaMin + float64(v)*w
		hi := lo + w
		if v == n-1 {
			hi = omegaMax
		}
		iv := &interval{lo: lo, hi: hi, shift: 0.5 * (lo + hi)}
		if v == 0 {
			iv.shift = lo
			iv.edgeLeft = true
		}
		if v == n-1 {
			iv.shift = hi
			iv.edgeRite = true
		}
		ivs[v] = iv
	}
	// Pick order: ν=1, ν=N, then ν=2…N−1.
	order := make([]*interval, 0, n)
	order = append(order, ivs[0], ivs[n-1])
	order = append(order, ivs[1:n-1]...)
	return order
}

// Solve runs the parallel multi-shift Hamiltonian eigensolver of Sec. IV
// and returns all imaginary eigenvalues in [OmegaMin, OmegaMax]. It is a
// thin wrapper over the pool engine: with Options.Pool set the job shares
// that pool's workers, otherwise a private pool with Options.Threads
// workers is created for the duration of the solve.
func Solve(op *hamiltonian.Op, opts Options) (*Result, error) {
	return SolveContext(context.Background(), op, opts)
}

// SolveContext is Solve with cancellation/deadline support: when ctx is
// canceled the remaining tentative shifts are dropped and the error is
// ctx.Err(). Cancellation granularity is one shift — shifts already in
// flight run to completion.
func SolveContext(ctx context.Context, op *hamiltonian.Op, opts Options) (*Result, error) {
	p := opts.Pool
	if p == nil && opts.Client != nil {
		p = opts.Client.Pool()
	}
	if p == nil {
		// NewPool clamps Threads < 1 to one worker; Submit validates the
		// options (rejecting negatives) before any solver work runs.
		p = NewPool(opts.Threads)
		defer p.Close()
	}
	j, err := p.Submit(ctx, op, opts)
	if err != nil {
		return nil, err
	}
	return j.Wait()
}
