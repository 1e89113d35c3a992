// Command benchtable regenerates Table I of the paper: for each of the
// twelve benchmark cases it reports the dynamic order n, port count p,
// detected number of imaginary Hamiltonian eigenvalues Nλ, the serial
// solve time τ̄₁, the T-thread mean and worst-case times τ̄_T / τ_T^max,
// and the average speedup η̄_T = τ̄₁/τ̄_T.
//
// Absolute times depend on the host; the reproduction target is the shape:
// all cases solve in seconds, with substantial (occasionally superlinear)
// speedups from the dynamic shift scheduler.
//
// With -fig6 it regenerates Fig. 6 instead: the speedup η_t = τ̄₁/τ_t for
// every thread count t = 1…-threads, with mean and standard deviation over
// -runs independent runs, printed as a series and as an ASCII plot against
// the ideal line. -cases then defaults to the paper's Case 5, and no JSON
// is written.
//
//	benchtable -threads 16 -runs 3 -cases 1,2,3
//	benchtable -fig6 -threads 16 -runs 20
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/statespace"
)

// tableRow is the machine-readable form of one Table-I line, written to the
// -json file so the perf trajectory across PRs is trackable (ns, not
// seconds, to match `go test -bench` output units).
type tableRow struct {
	Case         int     `json:"case"`
	N            int     `json:"n"`
	P            int     `json:"p"`
	Threads      int     `json:"threads"`
	Nlambda      int     `json:"nlambda"`
	PaperNlambda int     `json:"nlambda_paper"`
	Tau1NS       int64   `json:"tau1_ns"`
	TauTMeanNS   int64   `json:"tauT_mean_ns"`
	TauTMaxNS    int64   `json:"tauT_max_ns"`
	Speedup      float64 `json:"speedup"`
}

func main() {
	threads := flag.Int("threads", min(16, runtime.NumCPU()), "parallel thread count T (with -fig6: the largest thread count)")
	runs := flag.Int("runs", 3, "independent runs for the parallel mean/worst-case (with -fig6: per thread count and for τ̄₁)")
	serialRuns := flag.Int("serialruns", 1, "runs for the serial reference")
	cases := flag.String("cases", "", "comma-separated case IDs (default: all twelve)")
	cacheDir := flag.String("cache", "testdata/cases", "model cache directory")
	jsonOut := flag.String("json", "BENCH_table1.json", "machine-readable output file (empty to disable; ignored with -fig6)")
	fig6 := flag.Bool("fig6", false, "regenerate Fig. 6 (speedup vs thread count) instead of Table I")
	flag.Parse()

	specs := repro.TableICases()
	if *fig6 && *cases == "" {
		*cases = "5" // the paper's Fig. 6 case
	}
	if *cases != "" {
		var sel []repro.CaseSpec
		for _, tok := range strings.Split(*cases, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil {
				log.Fatalf("bad case id %q", tok)
			}
			spec, err := repro.FindCase(id)
			if err != nil {
				log.Fatal(err)
			}
			sel = append(sel, spec)
		}
		specs = sel
	}

	if *fig6 {
		for _, spec := range specs {
			model, err := statespace.CachedCase(spec, *cacheDir)
			if err != nil {
				log.Fatalf("case %d: %v", spec.ID, err)
			}
			speedupSweep(spec, model, *runs, *threads)
		}
		return
	}

	fmt.Printf("Table I reproduction — T=%d threads, %d parallel runs (host: %d cores)\n",
		*threads, *runs, runtime.NumCPU())
	fmt.Printf("%-7s %5s %4s %8s %4s | %9s %9s %9s %8s | %6s\n",
		"Case", "n", "p", "Nλ(pap)", "Nλ", "τ1[s]", "τT[s]", "τTmax[s]", "η", "shifts")

	var rows []tableRow
	for _, spec := range specs {
		model, err := statespace.CachedCase(spec, *cacheDir)
		if err != nil {
			log.Fatalf("case %d: %v", spec.ID, err)
		}
		// Serial reference.
		var tau1 float64
		var nl int
		for r := 0; r < *serialRuns; r++ {
			start := time.Now()
			res, err := repro.FindImagEigs(model, repro.SolverOptions{Threads: 1, Seed: int64(1000 + r)})
			if err != nil {
				log.Fatalf("case %d serial: %v", spec.ID, err)
			}
			tau1 += time.Since(start).Seconds()
			nl = len(res.Crossings)
		}
		tau1 /= float64(*serialRuns)
		// Parallel runs.
		var sum, worst float64
		for r := 0; r < *runs; r++ {
			start := time.Now()
			res, err := repro.FindImagEigs(model, repro.SolverOptions{Threads: *threads, Seed: int64(2000 + r)})
			if err != nil {
				log.Fatalf("case %d parallel: %v", spec.ID, err)
			}
			el := time.Since(start).Seconds()
			sum += el
			if el > worst {
				worst = el
			}
			if len(res.Crossings) != nl {
				fmt.Printf("  note: case %d run %d found Nλ=%d (serial found %d)\n",
					spec.ID, r, len(res.Crossings), nl)
			}
		}
		mean := sum / float64(*runs)
		fmt.Printf("Case %-2d %5d %4d %8d %4d | %9.3f %9.3f %9.3f %7.2fx | \n",
			spec.ID, spec.N, spec.P, spec.PaperNlambda, nl, tau1, mean, worst, tau1/mean)
		rows = append(rows, tableRow{
			Case: spec.ID, N: spec.N, P: spec.P, Threads: *threads,
			Nlambda: nl, PaperNlambda: spec.PaperNlambda,
			Tau1NS:     int64(tau1 * 1e9),
			TauTMeanNS: int64(mean * 1e9),
			TauTMaxNS:  int64(worst * 1e9),
			Speedup:    tau1 / mean,
		})
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d cases)\n", *jsonOut, len(rows))
	}
}

// speedupSweep prints Fig. 6 for one case: η_t = τ̄₁/τ_t per thread count
// t = 1…maxT as mean ± σ over runs, then an ASCII plot against the ideal
// line. The serial reference τ̄₁ is averaged over the same number of runs.
func speedupSweep(spec repro.CaseSpec, model *repro.Model, runs, maxT int) {
	fmt.Printf("Fig. 6 reproduction — Case %d (n=%d, p=%d), %d runs per point\n",
		spec.ID, spec.N, spec.P, runs)

	var tau1 float64
	for r := 0; r < runs; r++ {
		start := time.Now()
		if _, err := repro.FindImagEigs(model, repro.SolverOptions{Threads: 1, Seed: int64(100 + r)}); err != nil {
			log.Fatal(err)
		}
		tau1 += time.Since(start).Seconds()
	}
	tau1 /= float64(runs)
	fmt.Printf("serial reference τ̄₁ = %.3fs\n\n", tau1)

	type point struct {
		t    int
		mean float64
		std  float64
	}
	var pts []point
	fmt.Printf("%7s %10s %10s %8s\n", "threads", "η̄ (mean)", "σ (std)", "ideal")
	for t := 1; t <= maxT; t++ {
		etas := make([]float64, runs)
		for r := 0; r < runs; r++ {
			start := time.Now()
			if _, err := repro.FindImagEigs(model, repro.SolverOptions{Threads: t, Seed: int64(1000*t + r)}); err != nil {
				log.Fatal(err)
			}
			etas[r] = tau1 / time.Since(start).Seconds()
		}
		var mean float64
		for _, e := range etas {
			mean += e
		}
		mean /= float64(runs)
		var varr float64
		for _, e := range etas {
			varr += (e - mean) * (e - mean)
		}
		std := math.Sqrt(varr / float64(runs))
		pts = append(pts, point{t, mean, std})
		fmt.Printf("%7d %10.2f %10.2f %8d\n", t, mean, std, t)
	}

	// ASCII plot: speedup vs threads against the ideal diagonal.
	fmt.Println("\nspeedup vs threads ('o' measured ±σ bar, '.' ideal):")
	maxY := float64(maxT) + 1
	height := 18
	for row := height; row >= 0; row-- {
		y := maxY * float64(row) / float64(height)
		line := make([]byte, maxT*4+2)
		for i := range line {
			line[i] = ' '
		}
		for _, p := range pts {
			x := (p.t - 1) * 4
			if math.Abs(float64(p.t)-y) < maxY/float64(2*height) {
				line[x] = '.'
			}
			if p.mean-p.std <= y && y <= p.mean+p.std {
				line[x] = '|'
			}
			if math.Abs(p.mean-y) < maxY/float64(2*height) {
				line[x] = 'o'
			}
		}
		fmt.Printf("%5.1f %s\n", y, strings.TrimRight(string(line), " "))
	}
	fmt.Printf("      %s\n", strings.Repeat("-", maxT*4))
	fmt.Print("      ")
	for t := 1; t <= maxT; t++ {
		fmt.Printf("%-4d", t)
	}
	fmt.Println()
}
