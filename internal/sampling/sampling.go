// Package sampling implements adaptive-frequency-sampling passivity
// characterization (Grivet-Talocia 2007, ref. [17] of the DATE'11 paper):
// the pre-Hamiltonian approach that hunts for singular-value threshold
// crossings by recursively refining a frequency sweep. It serves as the
// baseline the Hamiltonian eigensolver is motivated against — sampling is
// simple and embarrassingly parallel, but it can only certify passivity up
// to the resolution of the sweep and famously misses narrow violation
// bands (demonstrated in this package's tests).
//
// Invariants: each distinct ω is evaluated exactly once per sweep
// (single-flight memoization), and refinement decisions depend only on the
// evaluated values — results are independent of evaluation order and
// therefore of the worker count.
//
// Concurrency: the bootstrap grid runs as one core.PhaseSample task batch
// on the shared pool of Options.Pool/Client, or on a private pool of
// Options.Workers workers when Workers > 1; otherwise evaluation is
// sequential on the calling goroutine. No σ evaluation runs on a free
// goroutine. Characterize must not be called from a pool worker.
package sampling

import (
	"context"
	"errors"
	"math"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/statespace"
)

// Options controls the adaptive sweep.
type Options struct {
	// OmegaMin, OmegaMax bound the searched band. OmegaMax = 0 uses
	// 3× the largest pole magnitude.
	OmegaMin, OmegaMax float64
	// InitialPoints is the size of the coarse bootstrap grid. Default 128.
	InitialPoints int
	// MaxRefinements bounds the number of interval subdivisions. Default
	// 4096.
	MaxRefinements int
	// RelResolution stops refining an interval once it is narrower than
	// RelResolution × OmegaMax. Default 1e-6.
	RelResolution float64
	// Threshold is the passivity threshold on σ_max. Default 1.
	Threshold float64
	// Workers parallelizes the bootstrap-grid σ evaluations on a private
	// pool of that many workers when no Pool or Client is given. Default 1.
	Workers int
	// Pool routes the bootstrap-grid σ evaluations through a shared
	// worker pool as one PhaseSample task batch instead of a private
	// pool, so a fleet machine stays full during sampling sweeps.
	// The adaptive refinement stays on the calling goroutine (each
	// subdivision depends on the previous σ values); the per-ω cache and
	// results are identical either way.
	Pool *core.Pool
	// Client optionally pins the pool scheduling identity (priority +
	// fairness weight) the sweep's tasks are charged to; an ephemeral
	// default-priority client of Pool is used when nil.
	Client *core.Client
}

func (o *Options) setDefaults(m *statespace.Model) {
	if o.OmegaMax == 0 {
		o.OmegaMax = 3 * m.MaxPoleMagnitude()
	}
	if o.InitialPoints == 0 {
		o.InitialPoints = 128
	}
	if o.MaxRefinements == 0 {
		o.MaxRefinements = 4096
	}
	if o.RelResolution == 0 {
		o.RelResolution = 1e-6
	}
	if o.Threshold == 0 {
		o.Threshold = 1
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
}

// Crossing is a detected threshold crossing, bracketed between two sampled
// frequencies and refined by bisection.
type Crossing struct {
	Omega  float64 // refined crossing estimate
	Rising bool    // σ_max crosses upward with increasing ω
}

// Result of an adaptive sweep.
type Result struct {
	Crossings []Crossing
	// Evaluations counts σ_max evaluations (the cost unit of this method).
	Evaluations int
	// Resolution is the finest interval width the sweep reached.
	Resolution float64
	// Passive is the sweep's verdict — only as trustworthy as the
	// resolution allows.
	Passive bool
}

// sampleEntry is one single-flight σ_max evaluation: the first goroutine to
// request ω owns the computation; later requesters block on done.
type sampleEntry struct {
	done chan struct{}
	val  float64
	err  error
}

// sampler caches σ_max evaluations on demand with per-ω single-flight:
// concurrent misses on the same frequency used to race past the lock and
// evaluate (and count) the same σ twice.
type sampler struct {
	m     *statespace.Model
	mu    sync.Mutex
	cache map[float64]*sampleEntry
	evals int
}

func (s *sampler) sigma(w float64) (float64, error) {
	s.mu.Lock()
	if e, ok := s.cache[w]; ok {
		s.mu.Unlock()
		<-e.done
		return e.val, e.err
	}
	e := &sampleEntry{done: make(chan struct{})}
	s.cache[w] = e
	s.evals++
	s.mu.Unlock()
	e.val, e.err = s.m.MaxSigma(w)
	close(e.done)
	return e.val, e.err
}

// Characterize runs the adaptive sweep and returns the detected crossings.
func Characterize(m *statespace.Model, opts Options) (*Result, error) {
	return CharacterizeContext(context.Background(), m, opts)
}

// CharacterizeContext is Characterize with cancellation: ctx aborts the
// bootstrap batch between tasks, the refinement loop between
// subdivisions, and the bisection loop between evaluations. A nil ctx
// behaves like context.Background().
func CharacterizeContext(ctx context.Context, m *statespace.Model, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opts.setDefaults(m)
	if opts.OmegaMax <= opts.OmegaMin {
		return nil, errors.New("sampling: empty band")
	}
	s := &sampler{m: m, cache: make(map[float64]*sampleEntry)}

	// Bootstrap grid: log-spaced plus the resonance frequencies (an
	// adaptive sampler in the spirit of [17] seeds on the model poles).
	grid := statespace.SweepGrid(m, math.Max(opts.OmegaMin, opts.OmegaMax*1e-6), opts.OmegaMax, opts.InitialPoints)
	if opts.OmegaMin == 0 {
		grid = append([]float64{0}, grid...)
	}
	sort.Float64s(grid)
	// Deduplicate.
	pts := grid[:0]
	for _, w := range grid {
		if len(pts) == 0 || w > pts[len(pts)-1] {
			pts = append(pts, w)
		}
	}

	// Parallel pre-evaluation of the bootstrap grid: one pool task per ω on
	// the caller's pool, or on a private pool of Workers workers when none
	// is given. The per-ω single-flight cache makes the evaluation set — and
	// the Evaluations counter — identical to a serial sweep.
	client := opts.Client
	if client != nil && opts.Pool != nil && client.Pool() != opts.Pool {
		// Mirror core.Pool.Submit: a client of another pool must not
		// silently reroute the sweep.
		return nil, errors.New("sampling: Options.Client is registered with a different pool")
	}
	if client == nil && opts.Pool == nil && opts.Workers > 1 {
		private := core.NewPool(opts.Workers)
		defer private.Close()
		opts.Pool = private
	}
	if client == nil && opts.Pool != nil {
		client = opts.Pool.NewClient(core.ClientOptions{})
	}
	if client != nil {
		fns := make([]func(int) error, len(pts))
		for i, w := range pts {
			fns[i] = func(int) error {
				_, err := s.sigma(w)
				return err
			}
		}
		if err := client.RunBatch(ctx, core.PhaseSample, fns); err != nil {
			return nil, err
		}
	}

	// Refinement queue: intervals whose endpoints disagree about the
	// threshold, or whose curvature suggests a hidden excursion.
	type iv struct{ lo, hi float64 }
	var queue []iv
	for i := 1; i < len(pts); i++ {
		queue = append(queue, iv{pts[i-1], pts[i]})
	}
	minWidth := opts.RelResolution * opts.OmegaMax
	resolution := opts.OmegaMax
	var brackets []iv
	refines := 0
	for len(queue) > 0 && refines < opts.MaxRefinements {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		g := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		w := g.hi - g.lo
		if w < resolution {
			resolution = w
		}
		slo, err := s.sigma(g.lo)
		if err != nil {
			return nil, err
		}
		shi, err := s.sigma(g.hi)
		if err != nil {
			return nil, err
		}
		crossed := (slo-opts.Threshold)*(shi-opts.Threshold) < 0
		if w <= minWidth {
			if crossed {
				brackets = append(brackets, g)
			}
			continue
		}
		mid := 0.5 * (g.lo + g.hi)
		smid, err := s.sigma(mid)
		if err != nil {
			return nil, err
		}
		refines++
		// Refine when a crossing is bracketed on either half, or when the
		// midpoint bulges toward the threshold (possible hidden band).
		loCross := (slo-opts.Threshold)*(smid-opts.Threshold) < 0
		hiCross := (smid-opts.Threshold)*(shi-opts.Threshold) < 0
		bulge := smid > math.Max(slo, shi) && smid > opts.Threshold*0.97
		if loCross || bulge || w > 4*minWidth && smid > 0.9*opts.Threshold {
			queue = append(queue, iv{g.lo, mid})
		}
		if hiCross || bulge || w > 4*minWidth && smid > 0.9*opts.Threshold {
			queue = append(queue, iv{mid, g.hi})
		}
	}

	// Bisect each bracket to the resolution limit.
	res := &Result{Resolution: resolution}
	for _, b := range brackets {
		lo, hi := b.lo, b.hi
		slo, err := s.sigma(lo)
		if err != nil {
			return nil, err
		}
		for hi-lo > minWidth/16 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			mid := 0.5 * (lo + hi)
			smid, err := s.sigma(mid)
			if err != nil {
				return nil, err
			}
			if (slo-opts.Threshold)*(smid-opts.Threshold) < 0 {
				hi = mid
			} else {
				lo, slo = mid, smid
			}
		}
		shiFinal, err := s.sigma(b.hi)
		if err != nil {
			return nil, err
		}
		res.Crossings = append(res.Crossings, Crossing{
			Omega:  0.5 * (lo + hi),
			Rising: shiFinal > opts.Threshold,
		})
	}
	sort.Slice(res.Crossings, func(i, j int) bool { return res.Crossings[i].Omega < res.Crossings[j].Omega })
	res.Evaluations = s.evals
	res.Passive = len(res.Crossings) == 0
	return res, nil
}

// Frequencies returns just the crossing frequencies, sorted.
func (r *Result) Frequencies() []float64 {
	out := make([]float64, len(r.Crossings))
	for i, c := range r.Crossings {
		out[i] = c.Omega
	}
	return out
}
