// Package passivity turns the Hamiltonian eigensolver output into a full
// passivity characterization of a scattering macromodel (violation bands
// between unit singular-value crossings) and enforces passivity by
// iterative residue perturbation, re-running the characterization after
// each perturbation pass (DATE'11 Sec. II; enforcement per refs. [8]/[15]).
//
// Invariants: the violation bands partition [0, ∞) at the crossing
// frequencies; σ probes never leave the certified search bound; and the
// whole report — crossings, band peaks, enforced model — is bit-identical
// under any worker count, because every parallel step writes only
// index-assigned slots.
//
// Concurrency: all heavy work runs as pool task batches under one
// scheduling client per characterization/enforcement — σ_max band probes
// (core.PhaseProbe) and per-band constraint assembly (core.PhaseConstraint)
// here, shifts/refinements inside the solver. Without an explicit
// Options.Core.Pool/Client a private pool of Core.Threads workers spans
// the call. Characterize/Enforce block on batch joins and must not be
// called from a pool worker goroutine.
package passivity

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/hamiltonian"
	"repro/internal/statespace"
)

// Band is a frequency interval on which σ_max(H(jω)) stays on one side of
// the unit threshold.
type Band struct {
	Lo, Hi    float64 // Hi = +Inf for the terminal band
	PeakOmega float64 // frequency of the largest sampled σ_max inside the band
	PeakSigma float64 // the largest sampled σ_max
	Violating bool    // PeakSigma > 1
}

// Report is a full passivity characterization.
type Report struct {
	Passive   bool
	Crossings []float64 // unit-crossing frequencies from the Hamiltonian spectrum
	Bands     []Band
	OmegaMax  float64 // searched band upper edge
	Solver    core.Stats
	// Backend is the kernel backend that executed the structured-operator
	// surface, as the dispatcher chose it from the model's structure.
	Backend statespace.Backend
	// HalfPath reports whether the half-size (squared, reciprocal-only)
	// eigenproblem was available to the solver for this characterization.
	HalfPath bool
}

// Violations returns only the violating bands.
func (r *Report) Violations() []Band {
	var out []Band
	for _, b := range r.Bands {
		if b.Violating {
			out = append(out, b)
		}
	}
	return out
}

// Options configures characterization.
type Options struct {
	// Core configures the parallel eigensolver.
	Core core.Options
	// ProbePoints is the number of σ samples per band when locating the
	// in-band peak. Default 40.
	ProbePoints int
	// Ops is ignored: every characterization builds its own operator. The
	// field stays only because the benchmark module (perfbench) sets it.
	Ops *hamiltonian.OpCache
}

func (o *Options) setDefaults() {
	if o.ProbePoints == 0 {
		o.ProbePoints = 40
	}
}

// validate rejects negative option values (the core solver validates its
// own on Submit; doing it here surfaces the error before any solver work).
func (o *Options) validate() error {
	if o.ProbePoints < 0 {
		return fmt.Errorf("passivity: ProbePoints must be ≥ 0, got %d", o.ProbePoints)
	}
	return nil
}

// Characterize computes the full passivity characterization of the model:
// the imaginary Hamiltonian eigenvalues give the exact crossing
// frequencies, and a σ_max probe in every enclosed band classifies it.
func Characterize(m *statespace.Model, opts Options) (*Report, error) {
	return CharacterizeContext(context.Background(), m, opts)
}

// CharacterizeContext is Characterize with cancellation/deadline support:
// the context is threaded into the eigensolver (which drops its remaining
// shifts on cancellation) and into the per-band σ probe batch.
//
// Every compute phase runs on one worker pool: the eigensolver shifts AND
// the per-band σ_max probes are pool tasks, so a shared (fleet) pool stays
// full through the probe phase instead of idling while the submitting
// goroutine probes alone. Without Core.Pool/Core.Client a private pool of
// Core.Threads workers spans the whole characterization.
func CharacterizeContext(ctx context.Context, m *statespace.Model, opts Options) (*Report, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts.setDefaults()
	op, err := hamiltonian.New(m, hamiltonian.Scattering)
	if err != nil {
		return nil, err
	}
	defer ensurePoolClient(&opts.Core)()
	res, err := core.SolveContext(ctx, op, opts.Core)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Crossings: res.Crossings,
		OmegaMax:  res.OmegaMax,
		Solver:    res.Stats,
		Backend:   m.ActiveBackend(),
		HalfPath:  op.HalfPath(),
	}
	rep.Bands, err = classifyBands(ctx, opts.Core.Client, m, res.Crossings, res.OmegaMax, opts.ProbePoints, opts.Core.Progress)
	if err != nil {
		return nil, err
	}
	rep.Passive = len(rep.Violations()) == 0
	return rep, nil
}

// ensurePoolClient defaults the Pool/Client pair of solver options in
// place — derive the pool from a given client, else create a private pool
// of Threads workers (NewPool clamps < 1 to one; invalid options are
// still rejected by the solver's Submit before any work runs), and mint
// an ephemeral default-priority client when none was passed. Returns the
// cleanup that closes a private pool (a no-op for shared pools); callers
// defer it around everything that uses the options.
func ensurePoolClient(o *core.Options) func() {
	if o.Pool == nil && o.Client != nil {
		o.Pool = o.Client.Pool()
	}
	cleanup := func() {}
	if o.Pool == nil {
		private := core.NewPool(o.Threads)
		o.Pool = private
		cleanup = private.Close
	}
	if o.Client == nil {
		o.Client = o.Pool.NewClient(core.ClientOptions{})
	}
	return cleanup
}

// classifyBands cuts [0, ∞) at the crossing frequencies and probes σ_max
// inside each band. Probe windows are clamped to the certified search
// bound omegaMax: beyond it the Hamiltonian test has certified no further
// crossings, but σ values out there are outside the certificate and once
// probed could misclassify the terminal band (e.g. a crossing just below
// omegaMax whose doubled window 2·lo used to overshoot the bound). The one
// exception is the degenerate terminal band opening at omegaMax itself,
// which has no certified interior and is classified from a thin sliver
// just past the edge.
//
// The probes fan out per band as one pool task batch under the caller's
// client and join: every probePeak runs on a pool worker, and because each
// task writes only its own index-assigned Band slot, the report is
// bit-identical under any worker count (the window layout is computed
// sequentially up front; probePeak itself is deterministic).
// When progress is non-nil it receives one observational PhaseProbe event
// per classified band, after the band's slot has been written — a consumer
// never sees a count ahead of the data it describes (though it may read a
// sibling slot mid-write; events only vouch for their own band).
func classifyBands(ctx context.Context, c *core.Client, m *statespace.Model, crossings []float64, omegaMax float64, probes int, progress func(core.ProgressEvent)) ([]Band, error) {
	edges := append([]float64{0}, crossings...)
	bands := make([]Band, len(edges))
	fns := make([]func(int) error, len(edges))
	var probed atomic.Int64
	for i := range edges {
		lo := edges[i]
		hi := math.Inf(1)
		probeHi := math.Min(2*lo, omegaMax)
		if i+1 < len(edges) {
			hi = edges[i+1]
			probeHi = hi
		} else if lo == 0 {
			probeHi = omegaMax // passive model: probe the whole searched band
		}
		if probeHi <= lo {
			// Terminal band opening at (or within rounding of) the certified
			// bound: probe a thin sliver just past the edge — the closest
			// window that still classifies which side of the threshold the
			// band sits on.
			probeHi = lo * (1 + 1e-6)
		}
		bands[i] = Band{Lo: lo, Hi: hi}
		fns[i] = func(int) error {
			peakW, peakS, err := probePeak(m, lo, probeHi, probes)
			if err != nil {
				return err
			}
			bands[i].PeakOmega = peakW
			bands[i].PeakSigma = peakS
			bands[i].Violating = peakS > 1
			if progress != nil {
				progress(core.ProgressEvent{
					Phase: core.PhaseProbe,
					Omega: peakW,
					Done:  int(probed.Add(1)),
					Total: len(edges),
				})
			}
			return nil
		}
	}
	if err := c.RunBatch(ctx, core.PhaseProbe, fns); err != nil {
		return nil, err
	}
	return bands, nil
}

// probePeak samples σ_max on (lo, hi) and refines the best sample with a
// short golden-section search.
func probePeak(m *statespace.Model, lo, hi float64, probes int) (float64, float64, error) {
	if probes < 3 {
		probes = 3
	}
	if hi <= lo {
		return lo, 0, errors.New("passivity: empty probe interval")
	}
	bestW, bestS := lo, -1.0
	// Interior samples only: the band edges are exact crossings (σ = 1).
	for i := 1; i <= probes; i++ {
		w := lo + (hi-lo)*float64(i)/float64(probes+1)
		s, err := m.MaxSigma(w)
		if err != nil {
			return 0, 0, err
		}
		if s > bestS {
			bestW, bestS = w, s
		}
	}
	// Golden-section refinement around the best sample.
	step := (hi - lo) / float64(probes+1)
	a, b := math.Max(lo, bestW-step), math.Min(hi, bestW+step)
	const phi = 0.6180339887498949
	x1 := b - phi*(b-a)
	x2 := a + phi*(b-a)
	f1, err := m.MaxSigma(x1)
	if err != nil {
		return 0, 0, err
	}
	f2, err := m.MaxSigma(x2)
	if err != nil {
		return 0, 0, err
	}
	for iter := 0; iter < 25 && (b-a) > 1e-9*(hi-lo); iter++ {
		if f1 > f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - phi*(b-a)
			if f1, err = m.MaxSigma(x1); err != nil {
				return 0, 0, err
			}
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + phi*(b-a)
			if f2, err = m.MaxSigma(x2); err != nil {
				return 0, 0, err
			}
		}
	}
	w := 0.5 * (a + b)
	s, err := m.MaxSigma(w)
	if err != nil {
		return 0, 0, err
	}
	if s < bestS {
		w, s = bestW, bestS
	}
	return w, s, nil
}

// VerifyBySampling is an independent cross-check of a characterization: it
// sweeps σ_max over a resonance-aware grid and reports every grid point
// violating the threshold together with the band classification implied by
// the report. Used by tests and by the CLI --verify flag.
func VerifyBySampling(m *statespace.Model, rep *Report, points int) error {
	if points <= 0 {
		points = 500
	}
	maxW := rep.OmegaMax
	if maxW == 0 {
		maxW = 3 * m.MaxPoleMagnitude()
	}
	grid := statespace.SweepGrid(m, maxW*1e-4, maxW, points)
	for _, w := range grid {
		s, err := m.MaxSigma(w)
		if err != nil {
			return err
		}
		inViolation := false
		for _, b := range rep.Bands {
			if b.Violating && w > b.Lo && (math.IsInf(b.Hi, 1) || w < b.Hi) {
				inViolation = true
				break
			}
		}
		// Allow slack near crossings where σ ≈ 1.
		const slack = 1e-3
		if s > 1+slack && !inViolation {
			return fmt.Errorf("passivity: σ=%g at ω=%g outside any reported violation band", s, w)
		}
		if s < 1-slack && inViolation {
			return fmt.Errorf("passivity: σ=%g at ω=%g inside a reported violation band", s, w)
		}
	}
	return nil
}

// WorstViolation returns the largest σ_max over all violating bands (1 if
// the model is passive).
func (r *Report) WorstViolation() float64 {
	worst := 1.0
	for _, b := range r.Bands {
		if b.Violating && b.PeakSigma > worst {
			worst = b.PeakSigma
		}
	}
	return worst
}
