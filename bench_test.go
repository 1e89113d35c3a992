// Benchmark harness regenerating every measured artifact of the paper:
//
//   - BenchmarkTableI           — Table I rows (serial vs parallel solve per case)
//   - BenchmarkFig6ThreadSweep  — Fig. 6 (speedup vs thread count, Case 5)
//   - BenchmarkAblation*        — design-choice ablations from DESIGN.md
//
// Under -short (and in plain `go test -bench=.` runs with the default
// -benchtime) the harness uses reduced-size stand-ins for the twelve cases
// so the suite completes in minutes; `go test -bench BenchmarkTableI
// -benchfull` (custom flag) runs the paper-size cases, and cmd/benchtable
// (Table I; Fig. 6 with -fig6) prints the full paper-formatted outputs.
package repro_test

import (
	"flag"
	"fmt"
	"runtime"
	"testing"

	"repro"
	"repro/internal/statespace"
)

var benchFull = flag.Bool("benchfull", false, "run benchmarks on the paper-size Table-I cases")

// benchCase returns the model for a Table-I case, shrunk unless -benchfull.
func benchCase(b *testing.B, id int) *repro.Model {
	b.Helper()
	spec, err := repro.FindCase(id)
	if err != nil {
		b.Fatal(err)
	}
	if *benchFull {
		m, err := statespace.CachedCase(spec, "testdata/cases")
		if err != nil {
			b.Fatal(err)
		}
		return m
	}
	// Reduced stand-in: same port/order *ratio* at ~1/5 the order, same
	// target peak — keeps the per-case character while fitting benchtime.
	shrunk := spec
	shrunk.N = spec.N / 5
	if shrunk.P > shrunk.N {
		shrunk.P = shrunk.N
	}
	m, err := statespace.CachedCase(shrunk, "testdata/cases-mini")
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func benchThreads() int { return min16(runtime.NumCPU()) }

func min16(v int) int {
	if v > 16 {
		return 16
	}
	return v
}

// BenchmarkTableI regenerates Table I: one sub-benchmark per case for the
// serial solver (τ1) and the parallel solver (τ16).
func BenchmarkTableI(b *testing.B) {
	for _, spec := range repro.TableICases() {
		spec := spec
		m := benchCase(b, spec.ID)
		b.Run(fmt.Sprintf("case%02d/serial", spec.ID), func(b *testing.B) {
			var nl int
			for i := 0; i < b.N; i++ {
				res, err := repro.FindImagEigs(m, repro.SolverOptions{Threads: 1, Seed: int64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				nl = len(res.Crossings)
			}
			b.ReportMetric(float64(nl), "Nlambda")
		})
		b.Run(fmt.Sprintf("case%02d/parallel", spec.ID), func(b *testing.B) {
			t := benchThreads()
			var nl int
			for i := 0; i < b.N; i++ {
				res, err := repro.FindImagEigs(m, repro.SolverOptions{Threads: t, Seed: int64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				nl = len(res.Crossings)
			}
			b.ReportMetric(float64(nl), "Nlambda")
			b.ReportMetric(float64(t), "threads")
		})
	}
}

// BenchmarkFig6ThreadSweep regenerates Fig. 6: Case-5 solve time for every
// thread count 1…16. Speedup = time(T1)/time(Tn).
func BenchmarkFig6ThreadSweep(b *testing.B) {
	m := benchCase(b, 5)
	for t := 1; t <= benchThreads(); t++ {
		t := t
		b.Run(fmt.Sprintf("T%02d", t), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := repro.FindImagEigs(m, repro.SolverOptions{Threads: t, Seed: int64(i + 1)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationStaticGrid compares the paper's dynamic scheduler with
// the statically pre-distributed shift grid it argues against (Sec. IV).
func BenchmarkAblationStaticGrid(b *testing.B) {
	m := benchCase(b, 5)
	t := benchThreads()
	b.Run("dynamic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := repro.FindImagEigs(m, repro.SolverOptions{Threads: t, Seed: int64(i + 1)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("staticgrid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := repro.FindImagEigsStaticGrid(m, repro.SolverOptions{Threads: t, Seed: int64(i + 1)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationKappa sweeps the initial-subdivision factor κ (Sec.
// IV-A prescribes κ ≥ 2).
func BenchmarkAblationKappa(b *testing.B) {
	m := benchCase(b, 5)
	t := benchThreads()
	for _, kappa := range []int{2, 4, 8} {
		kappa := kappa
		b.Run(fmt.Sprintf("kappa%d", kappa), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := repro.FindImagEigs(m, repro.SolverOptions{
					Threads: t, Kappa: kappa, Seed: int64(i + 1),
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSMWApply isolates the claim behind Eq. 6: the structured
// shift-invert apply is O(n·p) while a dense solve is O(n²) per apply after
// an O(n³) factorization.
func BenchmarkAblationSMWApply(b *testing.B) {
	m := benchCase(b, 1)
	op, err := repro.NewHamiltonian(m, repro.Scattering)
	if err != nil {
		b.Fatal(err)
	}
	theta := complex(0, 0.5*m.MaxPoleMagnitude())
	b.Run("structured-setup+apply", func(b *testing.B) {
		x := make([]complex128, op.Dim())
		y := make([]complex128, op.Dim())
		for i := range x {
			x[i] = complex(float64(i%7)-3, float64(i%5)-2)
		}
		for i := 0; i < b.N; i++ {
			so, err := op.ShiftInvert(theta)
			if err != nil {
				b.Fatal(err)
			}
			if err := so.Apply(y, x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("structured-apply-only", func(b *testing.B) {
		so, err := op.ShiftInvert(theta)
		if err != nil {
			b.Fatal(err)
		}
		x := make([]complex128, op.Dim())
		y := make([]complex128, op.Dim())
		for i := range x {
			x[i] = complex(float64(i%7)-3, float64(i%5)-2)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := so.Apply(y, x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense-apply", func(b *testing.B) {
		dm := op.Dense().ToComplex()
		x := make([]complex128, op.Dim())
		for i := range x {
			x[i] = complex(float64(i%7)-3, float64(i%5)-2)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = dm.MulVec(x)
		}
	})
}

// BenchmarkAblationFullEig measures the O(n³) dense full eigensolution the
// paper replaces, on a reduced case (the full-size baseline would dominate
// the suite).
func BenchmarkAblationFullEig(b *testing.B) {
	spec, err := repro.FindCase(1)
	if err != nil {
		b.Fatal(err)
	}
	spec.N = 120
	spec.P = 4
	m, err := statespace.CachedCase(spec, "testdata/cases-mini-eig")
	if err != nil {
		b.Fatal(err)
	}
	op, err := repro.NewHamiltonian(m, repro.Scattering)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("dense-full-eig", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := op.FullImagEigs(0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("multishift-arnoldi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := repro.FindImagEigs(m, repro.SolverOptions{Threads: 1, Seed: int64(i + 1)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVectorFitting measures the identification substrate (Sec. II).
func BenchmarkVectorFitting(b *testing.B) {
	device, err := repro.GenerateModel(99, repro.GenOptions{Ports: 2, Order: 24, TargetPeak: 0.95})
	if err != nil {
		b.Fatal(err)
	}
	samples := repro.SampleModel(device, repro.LogGrid(3e7, 3e10, 150))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repro.FitVector(samples, 24, repro.VFOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnpcheckFit measures the snpcheck fit stage on a synthetic
// many-port (8-port) sweep — the workload whose per-column SVD-heavy LS
// solves the pool-routed PhaseFit batches overlap. T01 is the sequential
// baseline; T08 runs the same fit on an 8-worker pool, and the T01/T08
// ratio is the pool-routed fit's wall-time win. vectfit's
// TestFitPoolRoutedBitIdentical holds the output bit-identical across
// thread counts.
func BenchmarkSnpcheckFit(b *testing.B) {
	device, err := repro.GenerateModel(7, repro.GenOptions{Ports: 8, Order: 48, TargetPeak: 1.02})
	if err != nil {
		b.Fatal(err)
	}
	samples := repro.SampleModel(device, repro.LogGrid(1e8, 1e11, 40))
	for _, threads := range []int{1, 8} {
		b.Run(fmt.Sprintf("T%02d", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := repro.FitVector(samples, 6, repro.VFOptions{Threads: threads}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEnforcement measures the full characterize→enforce loop.
func BenchmarkEnforcement(b *testing.B) {
	m, err := repro.GenerateModel(44, repro.GenOptions{Ports: 2, Order: 60, TargetPeak: 1.05})
	if err != nil {
		b.Fatal(err)
	}
	opts := repro.EnforceOptions{Char: repro.CharOptions{
		Core: repro.SolverOptions{Threads: benchThreads(), Seed: 5},
	}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := repro.Enforce(m, opts); err != nil {
			b.Fatal(err)
		}
	}
}
