// Command benchtable regenerates Table I of the paper: for each of the
// twelve benchmark cases it reports the dynamic order n, port count p,
// detected number of imaginary Hamiltonian eigenvalues Nλ, the serial
// solve time τ̄₁, the T-thread mean and worst-case times τ̄_T / τ_T^max,
// and the average speedup η̄_T = τ̄₁/τ̄_T. Each row also carries the work
// counts of its first serial run (shifts, operator applies, Arnoldi
// restarts): deterministic at T=1, so they compare across hosts even when
// the times do not.
//
// After the table, a fleet leg characterizes every selected case once on
// its own (sequentially, T threads each) and then all of them at once on
// one shared T-worker fleet engine. It reports solo wall time against the
// fleet makespan, per-case busy time and latency, and per-phase pool
// utilization. Every case's fleet crossings (float bits) and passivity
// verdict must equal its solo run's: on any difference benchtable exits
// non-zero, after writing the JSON.
//
// Absolute times depend on the host; the reproduction target is the shape:
// all cases solve in seconds, with substantial (occasionally superlinear)
// speedups from the dynamic shift scheduler.
//
// With -fig6 it regenerates Fig. 6 instead: the speedup η_t = τ̄₁/τ_t for
// every thread count t = 1…-threads, with mean and standard deviation over
// -runs independent runs, printed as a series and as an ASCII plot against
// the ideal line. -cases then defaults to the paper's Case 5, and neither
// the fleet leg runs nor JSON is written.
//
//	benchtable -threads 16 -runs 3 -cases 1,2,3
//	benchtable -fig6 -threads 16 -runs 20
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"sort"
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
	Nlambda      int     `json:"nlambda"`
	PaperNlambda int     `json:"nlambda_paper"`
	Tau1NS       int64   `json:"tau1_ns"`
	TauTMeanNS   int64   `json:"tauT_mean_ns"`
	TauTMaxNS    int64   `json:"tauT_max_ns"`
	Speedup      float64 `json:"speedup"`
	// T=1 work counts of the first serial run.
	Shifts    int `json:"shifts"`
	OpApplies int `json:"op_applies"`
	Restarts  int `json:"restarts"`
}

// fleetCase is one case of the fleet leg. FleetBusyNS is the pool-worker
// time spent on the job; FleetLatencyNS is its submit-to-done wall time in
// the concurrent run, which also counts time queued behind the other jobs.
type fleetCase struct {
	Case           int   `json:"case"`
	SoloNS         int64 `json:"solo_ns"`
	FleetBusyNS    int64 `json:"fleet_busy_ns"`
	FleetLatencyNS int64 `json:"fleet_latency_ns"`
	Shifts         int   `json:"shifts"`
	Identical      bool  `json:"crossings_bit_identical"`
}

// phaseRow is one compute phase's share of the fleet run's pool capacity.
type phaseRow struct {
	Phase       string  `json:"phase"`
	Tasks       int     `json:"tasks"`
	BusyNS      int64   `json:"busy_ns"`
	Utilization float64 `json:"utilization"` // busy / (workers × fleet makespan)
}

type fleetLeg struct {
	SoloWallNS  int64       `json:"solo_wall_ns"`
	FleetWallNS int64       `json:"fleet_wall_ns"` // makespan
	Speedup     float64     `json:"speedup"`
	JobsPerSec  float64     `json:"jobs_per_s"`
	Cases       []fleetCase `json:"cases"`
	Phases      []phaseRow  `json:"phase_utilization"`
}

type benchOut struct {
	HostCores int        `json:"host_cores"`
	Threads   int        `json:"threads"`
	Cases     []tableRow `json:"cases"`
	Fleet     fleetLeg   `json:"fleet"`
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
	fmt.Printf("%-7s %5s %4s %8s %4s | %9s %9s %9s %8s | %6s %7s %6s\n",
		"Case", "n", "p", "Nλ(pap)", "Nλ", "τ1[s]", "τT[s]", "τTmax[s]", "η", "shifts", "applies", "rstrts")

	out := benchOut{HostCores: runtime.NumCPU(), Threads: *threads}
	models := make([]*repro.Model, len(specs))
	for i, spec := range specs {
		model, err := statespace.CachedCase(spec, *cacheDir)
		if err != nil {
			log.Fatalf("case %d: %v", spec.ID, err)
		}
		models[i] = model
		// Serial reference.
		var tau1 float64
		var nl int
		var t1 repro.SolverResult // the first serial run, for its work counts
		for r := 0; r < *serialRuns; r++ {
			start := time.Now()
			res, err := repro.FindImagEigs(model, repro.SolverOptions{Threads: 1, Seed: int64(1000 + r)})
			if err != nil {
				log.Fatalf("case %d serial: %v", spec.ID, err)
			}
			tau1 += time.Since(start).Seconds()
			nl = len(res.Crossings)
			if r == 0 {
				t1 = *res
			}
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
		row := tableRow{
			Case: spec.ID, N: spec.N, P: spec.P,
			Nlambda: nl, PaperNlambda: spec.PaperNlambda,
			Tau1NS:     int64(tau1 * 1e9),
			TauTMeanNS: int64(mean * 1e9),
			TauTMaxNS:  int64(worst * 1e9),
			Speedup:    tau1 / mean,
			Shifts:     t1.Stats.ShiftsProcessed,
			OpApplies:  t1.Stats.OpApplies,
			Restarts:   t1.Stats.Restarts,
		}
		fmt.Printf("Case %-2d %5d %4d %8d %4d | %9.3f %9.3f %9.3f %7.2fx | %6d %7d %6d\n",
			spec.ID, spec.N, spec.P, spec.PaperNlambda, nl, tau1, mean, worst, tau1/mean,
			row.Shifts, row.OpApplies, row.Restarts)
		out.Cases = append(out.Cases, row)
	}

	identical := fleetRun(specs, models, *threads, &out.Fleet)
	if *jsonOut != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d cases)\n", *jsonOut, len(out.Cases))
	}
	if !identical {
		log.Fatal("fleet crossings or verdicts differ from the solo runs")
	}
}

// fleetRun characterizes every model once on its own, one after another,
// and then all of them at once on one shared fleet engine of the same
// width, fills leg, and reports whether every case's fleet crossings (float
// bits) and passivity verdict equal its solo run's.
func fleetRun(specs []repro.CaseSpec, models []*repro.Model, threads int, leg *fleetLeg) bool {
	opts := repro.CharOptions{Core: repro.SolverOptions{Threads: threads, Seed: 1}}
	solo := make([]*repro.Report, len(models))
	soloNS := make([]int64, len(models))
	start := time.Now()
	for i, m := range models {
		t0 := time.Now()
		rep, err := repro.Characterize(m, opts)
		if err != nil {
			log.Fatalf("solo case %d: %v", specs[i].ID, err)
		}
		solo[i], soloNS[i] = rep, time.Since(t0).Nanoseconds()
	}
	leg.SoloWallNS = time.Since(start).Nanoseconds()

	engine := repro.NewFleet(threads)
	defer engine.Close()
	jobs := make([]*repro.FleetJob, len(models))
	start = time.Now()
	for i, m := range models {
		j, err := engine.Submit(context.Background(), repro.FleetRequest{Model: m, Char: opts})
		if err != nil {
			log.Fatalf("fleet submit case %d: %v", specs[i].ID, err)
		}
		jobs[i] = j
	}
	fleet := make([]*repro.Report, len(models))
	for i, j := range jobs {
		res, err := j.Wait()
		if err != nil {
			log.Fatalf("fleet case %d: %v", specs[i].ID, err)
		}
		fleet[i] = res.Report
	}
	leg.FleetWallNS = time.Since(start).Nanoseconds()
	leg.Speedup = float64(leg.SoloWallNS) / float64(leg.FleetWallNS)
	leg.JobsPerSec = float64(len(models)) / (float64(leg.FleetWallNS) / 1e9)

	fmt.Printf("\nFleet leg — %d cases solo, then all at once on one %d-worker fleet engine\n",
		len(models), engine.Workers())
	fmt.Printf("%-7s %9s %9s %9s %6s | %s\n", "Case", "solo[s]", "busy[s]", "lat[s]", "shifts", "identical")
	all := true
	for i, spec := range specs {
		c := fleetCase{
			Case:           spec.ID,
			SoloNS:         soloNS[i],
			FleetBusyNS:    jobs[i].BusyTime().Nanoseconds(),
			FleetLatencyNS: jobs[i].WallTime().Nanoseconds(),
			Shifts:         fleet[i].Solver.ShiftsProcessed,
			Identical:      sameBits(solo[i].Crossings, fleet[i].Crossings) && solo[i].Passive == fleet[i].Passive,
		}
		all = all && c.Identical
		leg.Cases = append(leg.Cases, c)
		fmt.Printf("Case %-2d %9.3f %9.3f %9.3f %6d | %v\n", c.Case,
			float64(c.SoloNS)/1e9, float64(c.FleetBusyNS)/1e9, float64(c.FleetLatencyNS)/1e9, c.Shifts, c.Identical)
	}
	fmt.Printf("solo wall %.3fs, fleet makespan %.3fs → %.2fx, %.2f jobs/s, all identical: %v\n",
		float64(leg.SoloWallNS)/1e9, float64(leg.FleetWallNS)/1e9, leg.Speedup, leg.JobsPerSec, all)

	// Per-phase worker utilization: the share of the pool's capacity over
	// the makespan that each compute phase kept busy.
	stats := engine.PhaseStats()
	phases := make([]string, 0, len(stats))
	for ph := range stats {
		phases = append(phases, ph)
	}
	sort.Strings(phases)
	capacity := float64(engine.Workers()) * float64(leg.FleetWallNS)
	for _, ph := range phases {
		st := stats[ph]
		r := phaseRow{Phase: ph, Tasks: st.Tasks, BusyNS: st.Busy.Nanoseconds(),
			Utilization: float64(st.Busy.Nanoseconds()) / capacity}
		leg.Phases = append(leg.Phases, r)
		fmt.Printf("phase %-10s %6d tasks, %8.3fs busy, %5.1f%% of pool capacity\n",
			r.Phase, r.Tasks, float64(r.BusyNS)/1e9, 100*r.Utilization)
	}
	return all
}

// sameBits reports whether two crossing lists are equal float bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
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
