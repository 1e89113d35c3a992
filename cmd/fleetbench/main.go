// Command fleetbench exercises the shared-pool fleet engine on the paper's
// twelve Table-I cases:
//
//  1. Solo baseline — each case characterized one after another, each with
//     its own private pool of -workers threads (the pre-fleet deployment
//     model: total wall time is the sum).
//  2. Fleet — all cases submitted concurrently to ONE shared pool of
//     -workers threads. Wall time is the makespan; per-case crossings must
//     come out bit-identical to the solo run (the canonical-polish
//     guarantee in core.collect).
//  3. Priority + admission — batch enforcement jobs fill a bounded-
//     admission engine, then an interactive characterization submitted
//     mid-batch must overtake the queued batch work and finish first; a
//     fail-fast engine at its cap must reject the over-cap submit.
//  4. Vector Fitting A/B — a synthetic many-port sweep fitted with one
//     worker vs the full pool (pool-routed PhaseFit column batches),
//     asserting the fitted models are bit-identical and reporting the
//     wall-time win (the BenchmarkSnpcheckFit scenario).
//  5. Checkpoint resume — shrunk Table-I cases re-submitted from the first
//     half of their checkpoint stream, asserting bit-identical crossings
//     from strictly fewer shifts.
//
// The fleet phase also reports per-phase pool utilization (eig / probe /
// constraint / refine task counts and worker-busy share), so the
// probe-phase speedup from pool-routed classifyBands and the pool-routed
// refinement tails stay trackable.
//
// Results go to stdout and to -json (BENCH_fleet.json) so the throughput
// trajectory stays trackable across PRs.
//
//	fleetbench -workers 16 -cases 1,2,3 -priocase 2
package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/statespace"
)

// sameCrossings reports whether two characterizations found bit-identical
// crossing lists.
func sameCrossings(a, b *repro.Report) bool {
	if len(a.Crossings) != len(b.Crossings) {
		return false
	}
	for i := range a.Crossings {
		if a.Crossings[i] != b.Crossings[i] {
			return false
		}
	}
	return true
}

// sameFit reports whether two Vector Fitting results are bit-identical:
// same gob-encoded model, same RMS error, same per-column iterations.
func sameFit(a, b *repro.VFResult) bool {
	if a.RMSError != b.RMSError || len(a.Iterations) != len(b.Iterations) {
		return false
	}
	for i := range a.Iterations {
		if a.Iterations[i] != b.Iterations[i] {
			return false
		}
	}
	enc := func(m *repro.Model) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(m); err != nil {
			log.Fatalf("gob-encoding fit model: %v", err)
		}
		return buf.Bytes()
	}
	return bytes.Equal(enc(a.Model), enc(b.Model))
}

type caseRow struct {
	Case         int   `json:"case"`
	N            int   `json:"n"`
	P            int   `json:"p"`
	Nlambda      int   `json:"nlambda"`
	NlambdaSolo  int   `json:"nlambda_solo"`
	PaperNlambda int   `json:"nlambda_paper"`
	BitIdentical bool  `json:"crossings_bit_identical"`
	SoloNS       int64 `json:"solo_ns"`
	// FleetBusyNS is the pool-worker time actually spent computing this
	// job (fleet.Job.BusyTime); FleetLatencyNS is the job's submit-to-done
	// wall time inside the concurrent fleet run, which also counts time
	// queued behind the other jobs. The old single "fleet_ns" conflated
	// the two (it was latency, easily misread as per-job cost).
	FleetBusyNS    int64   `json:"fleet_busy_ns"`
	FleetLatencyNS int64   `json:"fleet_latency_ns"`
	Shifts         int     `json:"shifts"`
	ShiftsSolo     int     `json:"shifts_solo"`
	ShiftsPerSec   float64 `json:"shifts_per_sec"` // fleet-leg shifts per busy second
	Passive        bool    `json:"passive"`
	WorstSigma     float64 `json:"worst_sigma"`
}

type phaseRow struct {
	Phase       string  `json:"phase"`
	Tasks       int     `json:"tasks"`
	BusyNS      int64   `json:"busy_ns"`
	Utilization float64 `json:"utilization"` // busy / (workers × fleet wall)
}

type priorityRow struct {
	BatchJobs         int     `json:"batch_jobs"`
	MaxQueued         int     `json:"max_queued"`
	InteractiveNS     int64   `json:"interactive_ns"`
	LastBatchNS       int64   `json:"last_batch_ns"`
	Overtook          bool    `json:"interactive_overtook_batch"`
	OvertakeFactor    float64 `json:"overtake_factor"` // last batch / interactive latency
	FailFastRejected  bool    `json:"failfast_rejected"`
	FailFastMaxQueued int     `json:"failfast_max_queued"`
}

type vfRow struct {
	Ports        int     `json:"ports"`
	OrderPerCol  int     `json:"order_per_column"`
	Samples      int     `json:"samples"`
	Fit1NS       int64   `json:"fit_threads1_ns"`
	FitNNS       int64   `json:"fit_threadsN_ns"`
	FitThreads   int     `json:"fit_threads"`
	Speedup      float64 `json:"speedup"`
	BitIdentical bool    `json:"fit_bit_identical"`
	RMSError     float64 `json:"rms_error"`
}

type resumeRow struct {
	Case          int     `json:"case"`
	N             int     `json:"n"`
	FromSeq       int     `json:"resumed_from_seq"`
	FreshShifts   int     `json:"fresh_shifts"`
	ResumedShifts int     `json:"resumed_shifts"`
	ShiftsSavedPC float64 `json:"shifts_saved_pct"`
	FreshNS       int64   `json:"fresh_ns"`
	ResumedNS     int64   `json:"resumed_ns"`
	// StrictlyFewer is the durability acceptance gate: a resumed run must
	// re-execute only the shifts its checkpoint prefix had not committed.
	StrictlyFewer bool `json:"resumed_strictly_fewer_shifts"`
	BitIdentical  bool `json:"crossings_bit_identical"`
}

type benchOut struct {
	Workers         int          `json:"workers"`
	HostCores       int          `json:"host_cores"`
	Cases           []caseRow    `json:"cases"`
	SoloWallNS      int64        `json:"solo_wall_ns"`
	FleetWallNS     int64        `json:"fleet_wall_ns"`
	Speedup         float64      `json:"speedup"`
	ThroughputJobsS float64      `json:"fleet_throughput_jobs_per_s"`
	AllBitIdentical bool         `json:"all_crossings_bit_identical"`
	Phases          []phaseRow   `json:"fleet_phase_utilization"`
	Priority        *priorityRow `json:"priority,omitempty"`
	VectFit         *vfRow       `json:"vectfit,omitempty"`
	Resume          []resumeRow  `json:"resume,omitempty"`
}

func main() {
	workers := flag.Int("workers", min(16, runtime.NumCPU()), "shared pool worker count")
	cases := flag.String("cases", "", "comma-separated case IDs (default: all twelve)")
	cacheDir := flag.String("cache", "testdata/cases", "model cache directory")
	jsonOut := flag.String("json", "BENCH_fleet.json", "machine-readable output file (empty to disable)")
	prioCase := flag.Int("priocase", 2, "violating Table-I case for the batch jobs of the priority/admission demo (0 to skip)")
	vfPorts := flag.Int("vfports", 8, "port count of the synthetic sweep for the Vector Fitting A/B (0 to skip)")
	resumeOrder := flag.Int("resumeorder", 125, "shrunk order for the checkpoint-resume A/B on Table-I cases 1-3 (0 to skip)")
	flag.Parse()

	specs := repro.TableICases()
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

	charOpts := func() repro.CharOptions {
		return repro.CharOptions{Core: repro.SolverOptions{Threads: *workers, Seed: 1}}
	}

	models := make([]*repro.Model, len(specs))
	for i, spec := range specs {
		m, err := statespace.CachedCase(spec, *cacheDir)
		if err != nil {
			log.Fatalf("case %d: %v", spec.ID, err)
		}
		models[i] = m
	}

	out := benchOut{Workers: *workers, HostCores: runtime.NumCPU(), AllBitIdentical: true}
	fmt.Printf("Fleet bench — %d cases, shared pool of %d workers (host: %d cores)\n",
		len(specs), *workers, runtime.NumCPU())

	// Phase 1: solo baseline, sequential, private pool per solve.
	soloReps := make([]*repro.Report, len(specs))
	soloNS := make([]int64, len(specs))
	soloStart := time.Now()
	for i, spec := range specs {
		start := time.Now()
		rep, err := repro.Characterize(models[i], charOpts())
		if err != nil {
			log.Fatalf("solo case %d: %v", spec.ID, err)
		}
		soloNS[i] = time.Since(start).Nanoseconds()
		soloReps[i] = rep
	}
	out.SoloWallNS = time.Since(soloStart).Nanoseconds()

	// Phase 2: the same characterizations, all at once, on one shared pool.
	engine := repro.NewFleet(*workers)
	jobs := make([]*repro.FleetJob, len(specs))
	fleetStart := time.Now()
	for i := range specs {
		j, err := engine.Submit(context.Background(), repro.FleetRequest{
			Model: models[i],
			Char:  charOpts(),
		})
		if err != nil {
			log.Fatalf("submit case %d: %v", specs[i].ID, err)
		}
		jobs[i] = j
	}
	fleetReps := make([]*repro.Report, len(specs))
	fleetBusyNS := make([]int64, len(specs))
	fleetLatencyNS := make([]int64, len(specs))
	for i, j := range jobs {
		res, err := j.Wait()
		if err != nil {
			log.Fatalf("fleet case %d: %v", specs[i].ID, err)
		}
		fleetReps[i] = res.Report
		fleetBusyNS[i] = j.BusyTime().Nanoseconds()
		fleetLatencyNS[i] = j.WallTime().Nanoseconds()
	}
	out.FleetWallNS = time.Since(fleetStart).Nanoseconds()
	// Per-phase worker utilization of the fleet run: which fraction of the
	// pool's capacity each compute phase kept busy.
	stats := engine.PhaseStats()
	phases := make([]string, 0, len(stats))
	for ph := range stats {
		phases = append(phases, ph)
	}
	sort.Strings(phases)
	// engine.Workers() is the clamped worker count (-workers 0 means
	// GOMAXPROCS); the raw flag would make the capacity zero.
	capacity := float64(engine.Workers()) * float64(out.FleetWallNS)
	for _, ph := range phases {
		st := stats[ph]
		out.Phases = append(out.Phases, phaseRow{
			Phase: ph, Tasks: st.Tasks, BusyNS: st.Busy.Nanoseconds(),
			Utilization: float64(st.Busy.Nanoseconds()) / capacity,
		})
		fmt.Printf("phase %-10s %6d tasks, %8.3fs busy, %5.1f%% of pool capacity\n",
			ph, st.Tasks, st.Busy.Seconds(), 100*float64(st.Busy.Nanoseconds())/capacity)
	}
	engine.Close()

	fmt.Printf("%-7s %5s %4s %8s %4s %6s %8s | %9s %9s %9s | %4s\n",
		"Case", "n", "p", "Nλ(pap)", "Nλ", "shifts", "sh/s", "solo[s]", "busy[s]", "lat[s]", "bit=")
	for i, spec := range specs {
		solo, fl := soloReps[i], fleetReps[i]
		bit := len(solo.Crossings) == len(fl.Crossings)
		if bit {
			for k := range solo.Crossings {
				if solo.Crossings[k] != fl.Crossings[k] {
					bit = false
					break
				}
			}
		}
		if !bit {
			out.AllBitIdentical = false
		}
		row := caseRow{
			Case: spec.ID, N: spec.N, P: spec.P,
			Nlambda: len(fl.Crossings), NlambdaSolo: len(solo.Crossings),
			PaperNlambda: spec.PaperNlambda, BitIdentical: bit,
			SoloNS: soloNS[i], FleetBusyNS: fleetBusyNS[i], FleetLatencyNS: fleetLatencyNS[i],
			Shifts: fl.Solver.ShiftsProcessed, ShiftsSolo: solo.Solver.ShiftsProcessed,
			Passive: fl.Passive, WorstSigma: fl.WorstViolation(),
		}
		if fleetBusyNS[i] > 0 {
			row.ShiftsPerSec = float64(row.Shifts) / (float64(fleetBusyNS[i]) / 1e9)
		}
		out.Cases = append(out.Cases, row)
		fmt.Printf("Case %-2d %5d %4d %8d %4d %6d %8.1f | %9.3f %9.3f %9.3f | %v\n",
			spec.ID, spec.N, spec.P, spec.PaperNlambda, row.Nlambda, row.Shifts,
			row.ShiftsPerSec,
			float64(row.SoloNS)/1e9, float64(row.FleetBusyNS)/1e9, float64(row.FleetLatencyNS)/1e9, bit)
	}
	out.Speedup = float64(out.SoloWallNS) / float64(out.FleetWallNS)
	out.ThroughputJobsS = float64(len(specs)) / (float64(out.FleetWallNS) / 1e9)
	fmt.Printf("solo wall %.3fs, fleet wall %.3fs → %.2fx, %.2f jobs/s, all bit-identical: %v\n",
		float64(out.SoloWallNS)/1e9, float64(out.FleetWallNS)/1e9,
		out.Speedup, out.ThroughputJobsS, out.AllBitIdentical)

	// Phase 3: priority + admission demo. Batch enforcement jobs fill a
	// bounded-admission engine; an interactive characterization submitted
	// mid-batch must overtake the queued batch work.
	if *prioCase > 0 {
		spec, err := repro.FindCase(*prioCase)
		if err != nil {
			log.Fatal(err)
		}
		batchModel, err := statespace.CachedCase(spec, *cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		interSpec := specs[0]
		interModel, err := statespace.CachedCase(interSpec, *cacheDir)
		if err != nil {
			log.Fatal(err)
		}
		const nBatch = 3
		pr := priorityRow{BatchJobs: nBatch, MaxQueued: nBatch + 1}
		eng := repro.NewFleetEngine(repro.FleetOptions{Workers: *workers, MaxQueued: pr.MaxQueued})
		prioStart := time.Now()
		batchJobs := make([]*repro.FleetJob, nBatch)
		for i := range batchJobs {
			j, err := eng.Submit(context.Background(), repro.FleetRequest{
				Model:    batchModel,
				Enforce:  &repro.EnforceOptions{Char: charOpts()},
				Priority: repro.PriorityBatch,
			})
			if err != nil {
				log.Fatalf("batch submit %d: %v", i, err)
			}
			batchJobs[i] = j
		}
		inter, err := eng.Submit(context.Background(), repro.FleetRequest{
			Model:    interModel,
			Char:     charOpts(),
			Priority: repro.PriorityInteractive,
		})
		if err != nil {
			log.Fatalf("interactive submit: %v", err)
		}
		if _, err := inter.Wait(); err != nil {
			log.Fatalf("interactive job: %v", err)
		}
		pr.InteractiveNS = time.Since(prioStart).Nanoseconds()
		for i, j := range batchJobs {
			if _, err := j.Wait(); err != nil && !errors.Is(err, repro.ErrEnforcementFailed) {
				log.Fatalf("batch job %d: %v", i, err)
			}
		}
		pr.LastBatchNS = time.Since(prioStart).Nanoseconds()
		pr.Overtook = pr.InteractiveNS < pr.LastBatchNS
		pr.OvertakeFactor = float64(pr.LastBatchNS) / float64(pr.InteractiveNS)
		eng.Close()

		// Admission fail-fast: a second engine at its cap must reject.
		pr.FailFastMaxQueued = 1
		ff := repro.NewFleetEngine(repro.FleetOptions{Workers: 1, MaxQueued: 1, FailFast: true})
		hold, err := ff.Submit(context.Background(), repro.FleetRequest{
			Model: interModel, Char: charOpts(),
		})
		if err != nil {
			log.Fatalf("fail-fast holder: %v", err)
		}
		_, err = ff.Submit(context.Background(), repro.FleetRequest{
			Model: interModel, Char: charOpts(),
		})
		pr.FailFastRejected = errors.Is(err, repro.ErrFleetQueueFull)
		if _, err := hold.Wait(); err != nil {
			log.Fatalf("fail-fast holder job: %v", err)
		}
		ff.Close()

		out.Priority = &pr
		fmt.Printf("priority demo: interactive case %d done in %.3fs vs %.3fs for %d batch enforcements of case %d (overtook: %v, %.1fx headroom); fail-fast over-cap rejected: %v\n",
			interSpec.ID, float64(pr.InteractiveNS)/1e9, float64(pr.LastBatchNS)/1e9,
			nBatch, spec.ID, pr.Overtook, pr.OvertakeFactor, pr.FailFastRejected)
	}

	// Phase 4: Vector Fitting A/B — one worker vs the pool on a synthetic
	// many-port sweep (the per-column PhaseFit batches of vectfit.Fitter).
	if *vfPorts > 0 {
		const vfOrder, vfSamples = 6, 40
		device, err := repro.GenerateModel(7, repro.GenOptions{
			Ports: *vfPorts, Order: 6 * *vfPorts, TargetPeak: 1.02,
		})
		if err != nil {
			log.Fatalf("vectfit device: %v", err)
		}
		samples := repro.SampleModel(device, repro.LogGrid(1e8, 1e11, vfSamples))
		fitWith := func(threads int) (*repro.VFResult, int64) {
			start := time.Now()
			fit, err := repro.FitVector(samples, vfOrder, repro.VFOptions{Threads: threads})
			if err != nil {
				log.Fatalf("vectfit (threads=%d): %v", threads, err)
			}
			return fit, time.Since(start).Nanoseconds()
		}
		// The parallel leg uses at least 8 workers (the BenchmarkSnpcheckFit
		// T08 scenario) even when -workers is smaller; on a host with fewer
		// cores the pool time-shares and the ratio honestly reports ~1.
		threadsN := *workers
		if threadsN < 8 {
			threadsN = 8
		}
		fit1, ns1 := fitWith(1)
		fitN, nsN := fitWith(threadsN)
		vf := vfRow{
			Ports: *vfPorts, OrderPerCol: vfOrder, Samples: vfSamples,
			Fit1NS: ns1, FitNNS: nsN, FitThreads: threadsN,
			Speedup:      float64(ns1) / float64(nsN),
			BitIdentical: sameFit(fit1, fitN),
			RMSError:     fitN.RMSError,
		}
		out.VectFit = &vf
		fmt.Printf("vectfit A/B (%d ports, order %d, %d samples): %.3fs @1 thread → %.3fs @%d (%.2fx), bit-identical: %v\n",
			vf.Ports, vf.OrderPerCol, vf.Samples, float64(ns1)/1e9, float64(nsN)/1e9,
			vf.FitThreads, vf.Speedup, vf.BitIdentical)
	}

	// Phase 5: checkpoint-resume A/B — the durable-store restart economics
	// on shrunk Table-I cases. Each case is solved cold on the fleet engine
	// while its per-shift checkpoint stream is recorded; the first half of
	// the stream (in sequence order — callbacks land out of order) is folded
	// into a ResumeState and the case is re-submitted seeded from it. The
	// resumed run must report bit-identical crossings while executing
	// strictly fewer shifts: a daemon restart pays for the uncommitted
	// suffix only, never the whole solve.
	if *resumeOrder > 0 {
		eng := repro.NewFleetEngine(repro.FleetOptions{Workers: *workers})
		for _, id := range []int{1, 2, 3} {
			spec, err := repro.FindCase(id)
			if err != nil {
				log.Fatal(err)
			}
			spec.N = *resumeOrder
			m, err := repro.BuildCase(spec)
			if err != nil {
				log.Fatalf("resume case %d: %v", id, err)
			}
			var mu sync.Mutex
			var cks []core.Checkpoint
			freshStart := time.Now()
			j, err := eng.Submit(context.Background(), repro.FleetRequest{
				Model: m,
				Char:  charOpts(),
				Checkpoint: func(ck core.Checkpoint) {
					mu.Lock()
					cks = append(cks, ck)
					mu.Unlock()
				},
			})
			if err != nil {
				log.Fatalf("resume A/B fresh submit case %d: %v", id, err)
			}
			res, err := j.Wait()
			if err != nil {
				log.Fatalf("resume A/B fresh case %d: %v", id, err)
			}
			freshNS := time.Since(freshStart).Nanoseconds()
			fresh := res.Report
			mu.Lock()
			sort.Slice(cks, func(a, b int) bool { return cks[a].Seq < cks[b].Seq })
			half := (len(cks) + 1) / 2
			var rs core.ResumeState
			for _, ck := range cks[:half] {
				rs.Apply(ck)
			}
			freshShifts := 0
			for _, ck := range cks {
				if ck.Out != nil {
					freshShifts++
				}
			}
			mu.Unlock()
			// A resumed run preloads the prefix's committed shifts into its
			// Result (Solver.ShiftsProcessed describes the whole solve), so
			// the work actually re-executed is counted the same way on both
			// legs: one checkpoint commit (Out != nil) per shift run.
			var newMu sync.Mutex
			newShifts := 0
			resumedStart := time.Now()
			j2, err := eng.Submit(context.Background(), repro.FleetRequest{
				Model:  m,
				Char:   charOpts(),
				Resume: &rs,
				Checkpoint: func(ck core.Checkpoint) {
					if ck.Out != nil {
						newMu.Lock()
						newShifts++
						newMu.Unlock()
					}
				},
			})
			if err != nil {
				log.Fatalf("resume A/B resumed submit case %d: %v", id, err)
			}
			res2, err := j2.Wait()
			if err != nil {
				log.Fatalf("resume A/B resumed case %d: %v", id, err)
			}
			resumedNS := time.Since(resumedStart).Nanoseconds()
			resumed := res2.Report
			newMu.Lock()
			rr := resumeRow{
				Case: id, N: *resumeOrder, FromSeq: rs.Seq,
				FreshShifts:   freshShifts,
				ResumedShifts: newShifts,
				FreshNS:       freshNS, ResumedNS: resumedNS,
				StrictlyFewer: newShifts < freshShifts,
				BitIdentical:  sameCrossings(fresh, resumed),
			}
			newMu.Unlock()
			rr.ShiftsSavedPC = 100 * (1 - float64(rr.ResumedShifts)/float64(rr.FreshShifts))
			out.Resume = append(out.Resume, rr)
			fmt.Printf("resume A/B (case %d, n=%d, from seq %d): shifts fresh %d → resumed %d (%.1f%% saved, strictly fewer: %v), %.3fs → %.3fs, bit-identical: %v\n",
				rr.Case, rr.N, rr.FromSeq, rr.FreshShifts, rr.ResumedShifts, rr.ShiftsSavedPC,
				rr.StrictlyFewer, float64(freshNS)/1e9, float64(resumedNS)/1e9, rr.BitIdentical)
		}
		eng.Close()
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonOut)
	}
}
