package passivity

import (
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/statespace"
)

// BenchmarkEnforceOmegaMaxCarry enforces Table-I case 2 (n=1000, p=20, the
// perfbench enforce model) the way the enforce workload does — on a shared
// pool — once carrying the certified ω_max across
// iterations (the only production behaviour) and once re-estimating it
// every iteration through the in-package reestimateOmegaMax hook. Each leg
// reports per enforcement the solver work (shifts, applies, restarts),
// the iteration count and the process CPU seconds; T1 legs are the
// deterministic single-worker counts. The model is generated into the
// module's testdata/cases on first use (tens of seconds). Run with
//
//	go test -run '^$' -bench '^BenchmarkEnforceOmegaMaxCarry$' -benchtime 5x ./internal/passivity/
func BenchmarkEnforceOmegaMaxCarry(b *testing.B) {
	spec, err := statespace.FindCase(2)
	if err != nil {
		b.Fatal(err)
	}
	m, err := statespace.CachedCase(spec, "../../testdata/cases")
	if err != nil {
		b.Fatal(err)
	}
	for _, threads := range []int{1, 2} {
		for _, leg := range []struct {
			name       string
			reestimate bool
		}{{"carry", false}, {"reestimate", true}} {
			b.Run(leg.name+"/T"+itoa(threads), func(b *testing.B) {
				p := core.NewPool(threads)
				defer p.Close()
				var tot core.Stats
				iters := 0
				cpu0 := processCPU(b)
				for i := 0; i < b.N; i++ {
					_, rep, err := Enforce(m, EnforceOptions{
						Char:               Options{Core: core.Options{Threads: threads, Pool: p}},
						reestimateOmegaMax: leg.reestimate,
					})
					if err != nil {
						b.Fatal(err)
					}
					tot.Add(rep.SolverTotals)
					iters += rep.Iterations
				}
				n := float64(b.N)
				b.ReportMetric(float64(tot.ShiftsProcessed)/n, "shifts/op")
				b.ReportMetric(float64(tot.OpApplies)/n, "applies/op")
				b.ReportMetric(float64(tot.Restarts)/n, "restarts/op")
				b.ReportMetric(float64(iters)/n, "iters/op")
				b.ReportMetric((processCPU(b)-cpu0).Seconds()/n, "cpu-s/op")
			})
		}
	}
}

// processCPU returns the user+system CPU time the process has used.
func processCPU(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
