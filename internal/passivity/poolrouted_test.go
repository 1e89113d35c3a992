package passivity

import (
	"context"
	"math"
	"testing"

	"repro/internal/core"
)

// TestCharacterizeThreadCountInvariance: pool-routed band probes must keep
// the full report — crossings AND per-band peaks — bit-identical across
// worker counts, exactly like the pre-refactor sequential probe loop.
func TestCharacterizeThreadCountInvariance(t *testing.T) {
	models := []struct {
		seed  int64
		order int
		peak  float64
	}{
		{141, 28, 1.06},
		{142, 24, 1.04},
		{143, 20, 0.92}, // passive: single band over the whole band
	}
	for _, mc := range models {
		m := genModel(t, mc.seed, mc.order, mc.peak)
		var ref *Report
		for _, threads := range []int{1, 2, 8} {
			o := charOpts()
			o.Core.Threads = threads
			rep, err := Characterize(m, o)
			if err != nil {
				t.Fatalf("seed %d threads %d: %v", mc.seed, threads, err)
			}
			if ref == nil {
				ref = rep
				continue
			}
			if len(rep.Crossings) != len(ref.Crossings) || len(rep.Bands) != len(ref.Bands) {
				t.Fatalf("seed %d threads %d: %d crossings/%d bands vs %d/%d at Threads=1",
					mc.seed, threads, len(rep.Crossings), len(rep.Bands), len(ref.Crossings), len(ref.Bands))
			}
			for k := range rep.Crossings {
				if rep.Crossings[k] != ref.Crossings[k] {
					t.Fatalf("seed %d threads %d: crossing %d not bit-identical: %v vs %v",
						mc.seed, threads, k, rep.Crossings[k], ref.Crossings[k])
				}
			}
			for k := range rep.Bands {
				got, want := rep.Bands[k], ref.Bands[k]
				if got.Lo != want.Lo || got.PeakOmega != want.PeakOmega ||
					got.PeakSigma != want.PeakSigma || got.Violating != want.Violating ||
					(got.Hi != want.Hi && !(math.IsInf(got.Hi, 1) && math.IsInf(want.Hi, 1))) {
					t.Fatalf("seed %d threads %d: band %d not bit-identical:\n got %+v\nwant %+v",
						mc.seed, threads, k, got, want)
				}
			}
		}
	}
}

// TestCharacterizeProbesRunAsPoolTasks: on a shared pool, every band probe
// must be accounted as a PhaseProbe pool task (i.e. executed by a pool
// worker, not the submitting goroutine — the worker-goroutine property
// itself is asserted by core.TestRunBatchExecutesOnWorkers) and every
// eigensolver shift as a PhaseEig task.
func TestCharacterizeProbesRunAsPoolTasks(t *testing.T) {
	p := core.NewPool(2)
	defer p.Close()
	m := genModel(t, 144, 24, 1.05)
	o := charOpts()
	o.Core.Pool = p
	rep, err := CharacterizeContext(context.Background(), m, o)
	if err != nil {
		t.Fatal(err)
	}
	st := p.PhaseStats()
	if st[core.PhaseProbe].Tasks != len(rep.Bands) {
		t.Fatalf("PhaseProbe counted %d tasks, report has %d bands",
			st[core.PhaseProbe].Tasks, len(rep.Bands))
	}
	// One extra PhaseEig task is the pool-routed ω_max estimation sweep.
	if st[core.PhaseEig].Tasks != rep.Solver.ShiftsProcessed+1 {
		t.Fatalf("PhaseEig counted %d tasks, want %d shifts + 1 estimate",
			st[core.PhaseEig].Tasks, rep.Solver.ShiftsProcessed)
	}
	// The collect tail (refinements + canonical polish) books PhaseRefine.
	if st[core.PhaseRefine].Tasks == 0 {
		t.Fatal("no PhaseRefine tasks executed on the pool")
	}
}

// TestEnforceConstraintsRunAsPoolTasks: enforcement constraint assembly
// must fan out as PhaseConstraint tasks on the shared pool.
func TestEnforceConstraintsRunAsPoolTasks(t *testing.T) {
	p := core.NewPool(2)
	defer p.Close()
	m := genModel(t, 145, 22, 1.06)
	eo := EnforceOptions{Char: charOpts()}
	eo.Char.Core.Pool = p
	_, rep, err := EnforceContext(context.Background(), m, eo)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations == 0 {
		t.Skip("model came out passive; no perturbation pass ran")
	}
	if n := p.PhaseStats()[core.PhaseConstraint].Tasks; n == 0 {
		t.Fatal("no PhaseConstraint tasks executed on the pool")
	}
}
