package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/arnoldi"
	"repro/internal/core"
	"repro/internal/hamiltonian"
	"repro/internal/passivity"
	"repro/internal/statespace"
	"repro/internal/store"
)

// The traced run. Every layer is timed from outside the program: by
// wrapping calls into the layer's exported functions, and by reading the
// telemetry the program already exposes (pool phase statistics, report
// counters, Progress/Checkpoint hooks, cache statistics, the store file).
// Spans are held in memory and written to <dir>/traces when the run ends.
//
// Below the solver's own API there is no hook, so the eigensolver's inner
// layers are measured by replaying a job's committed shifts: the shift
// intervals come from the job's checkpoints, each shift is re-factored on
// a fresh operator (hamiltonian.Op.ShiftInvert / HalfOp.ShiftInvert) and
// re-swept through arnoldi.SingleShift / SingleShiftReal with a counting,
// timing ShiftInverter wrapped around the factored operator. The replay
// must reproduce each shift's restart and apply counts exactly;
// trace.replay_mismatches counts the shifts where it did not.

// span is one timed interval of the trace dump.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer collects one traced run.
type tracer struct {
	start      time.Time
	mu         sync.Mutex
	spans      []span
	untraced   []sample
	traced     []sample
	windowWall float64
	phases     map[string]core.PhaseStat
	queueMax   int
	// layer holds the metrics of the post-window probes.
	layer map[string]float64
	// failed counts wrong outputs found by the post-window probes.
	failed int
}

func (tr *tracer) addSpan(parent int, name string, t0, t1 time.Time, attrs map[string]float64) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Name: name,
		Start: t0.Sub(tr.start).Nanoseconds(), End: t1.Sub(tr.start).Nanoseconds(), Attrs: attrs})
	return id
}

// jobTrace is what one traced job records.
type jobTrace struct {
	start time.Time
	end   time.Time
	mu    sync.Mutex
	// marks are named instants, in seconds since the job started.
	marks map[string]float64
	// probes and ckpts are the instants of band-probe progress events and
	// enforcement iteration checkpoints.
	probes, ckpts []float64
	stats         []core.Stats
	busy          float64
	iters         int
	cache         hamiltonian.CacheStats
}

func (tr *tracer) newJob() *jobTrace {
	return &jobTrace{start: time.Now(), marks: map[string]float64{}}
}

func (jt *jobTrace) mark(name string, t0 time.Time) {
	jt.mu.Lock()
	jt.marks[name] = since(t0)
	jt.mu.Unlock()
}

func (jt *jobTrace) markOnce(name string, t0 time.Time) {
	jt.mu.Lock()
	if _, ok := jt.marks[name]; !ok {
		jt.marks[name] = since(t0)
	}
	jt.mu.Unlock()
}

// hook attaches the job's observers to the solver options: a client of its
// own (for busy time) and the Progress hook.
func (jt *jobTrace) hook(o *core.Options, p *core.Pool) {
	o.Client = p.NewClient(core.ClientOptions{})
	o.Progress = func(ev core.ProgressEvent) {
		if len(ev.NearAxis) > 0 {
			jt.markOnce("core.first_crossing", jt.start)
		}
		if ev.Phase == core.PhaseProbe {
			jt.mu.Lock()
			jt.probes = append(jt.probes, since(jt.start))
			jt.mu.Unlock()
		}
	}
}

func (jt *jobTrace) enforceCheckpoint(passivity.EnforceCheckpoint) {
	jt.mu.Lock()
	jt.ckpts = append(jt.ckpts, since(jt.start))
	jt.mu.Unlock()
}

// perturbSeconds splits an enforcement job's wall time: each iteration's
// perturbation runs from its last band probe to its checkpoint.
func (jt *jobTrace) perturbSeconds() float64 {
	jt.mu.Lock()
	defer jt.mu.Unlock()
	probes := append([]float64(nil), jt.probes...)
	sort.Float64s(probes)
	var total float64
	for _, ck := range jt.ckpts {
		i := sort.SearchFloat64s(probes, ck)
		if i > 0 {
			total += ck - probes[i-1]
		}
	}
	return total
}

// sampleQueue records the pool's peak queue depth until the returned stop
// function is called.
func (tr *tracer) sampleQueue(depth func() int) func() {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				if d := depth(); d > tr.queueMax {
					tr.queueMax = d
				}
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// traced runs the traced variant of a workload and returns its per-layer
// metrics.
func traced(cfg config, w *workload, dir string, warmup bool) (*result, error) {
	tr := &tracer{start: time.Now(), layer: map[string]float64{}}
	m, err := measure(cfg, w, dir, warmup, tr)
	if err != nil {
		return nil, err
	}
	res := tr.perLayer(m)
	path := filepath.Join(cfg.Dir, "traces", fmt.Sprintf("%s-seed%d.json", cfg.Workload, cfg.Seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	if err := writeJSON(path, tr.spans); err != nil {
		return nil, err
	}
	return res, nil
}

// post runs the layer probes that need the set-up session, after the
// traced window.
func (tr *tracer) post(ctx context.Context, w *workload, s session) error {
	switch s := s.(type) {
	case *charSession:
		if err := tr.decompose(ctx, s); err != nil {
			return err
		}
		if w.caseID == 5 {
			return tr.singleThreaded(s)
		}
	case *enforceSession:
		t0 := time.Now()
		if _, err := hamiltonian.NewWith(s.m, hamiltonian.Scattering, hamiltonian.NewOptions{}); err != nil {
			return err
		}
		tr.layer["hamiltonian.build_s"] = since(t0)
		tr.addSpan(0, "hamiltonian.build", t0, time.Now(), nil)
	case *serviceSession:
		return tr.storeProbe(s)
	}
	return nil
}

// decompose runs one characterization solve layer by layer: the operator
// build (hamiltonian.NewWith), the multi-shift solve on the benchmark's
// pool with checkpoints on, its shift-cache statistics, and the replay of
// its committed shifts.
func (tr *tracer) decompose(ctx context.Context, s *charSession) error {
	t0 := time.Now()
	op, err := hamiltonian.NewWith(s.m, hamiltonian.Scattering, hamiltonian.NewOptions{})
	if err != nil {
		return err
	}
	t1 := time.Now()
	tr.layer["hamiltonian.build_s"] = t1.Sub(t0).Seconds()
	var mu sync.Mutex
	var cks []core.Checkpoint
	res, err := core.SolveContext(ctx, op, core.Options{Threads: jobThreads, Pool: s.p,
		Checkpoint: func(ck core.Checkpoint) { mu.Lock(); cks = append(cks, ck); mu.Unlock() }})
	if err != nil {
		return err
	}
	t2 := time.Now()
	root := tr.addSpan(0, "core.solve", t0, t2, nil)
	tr.addSpan(root, "hamiltonian.build", t0, t1, nil)
	if !slices.Equal(floatBits(res.Crossings), s.ref.Crossings) {
		tr.failed++
		fmt.Fprintln(os.Stderr, "perfbench: decomposed solve crossings differ from the reference")
	}
	cs := op.OpCacheStats()
	tr.layer["hamiltonian.cache_hits"] = float64(cs.Hits)
	tr.layer["hamiltonian.cache_misses"] = float64(cs.Misses)
	return tr.replay(s.m, cks, root)
}

// replay re-runs a solve's committed shifts one at a time on a fresh
// operator with no shift cache, timing factorization, shift-invert solves
// and the Arnoldi sweep around them.
func (tr *tracer) replay(m *statespace.Model, cks []core.Checkpoint, parent int) error {
	op, err := hamiltonian.NewWith(m, hamiltonian.Scattering, hamiltonian.NewOptions{})
	if err != nil {
		return err
	}
	sort.Slice(cks, func(i, j int) bool { return cks[i].Seq < cks[j].Seq })
	// The interval behind the shift committed at Seq k is in the tentative
	// set of an earlier checkpoint, found by its exact shift bits.
	known := map[uint64]core.IntervalCheckpoint{}
	var st replayStats
	t0 := time.Now()
	for _, ck := range cks {
		if out := ck.Out; out != nil {
			if iv, ok := known[math.Float64bits(out.Omega)]; ok {
				if err := tr.replayShift(op, iv, out, &st, parent); err != nil {
					return err
				}
			} else {
				st.mismatches++
			}
		}
		for _, iv := range ck.Tentative {
			known[math.Float64bits(iv.Shift)] = iv
		}
	}
	tr.addSpan(parent, "replay", t0, time.Now(), map[string]float64{"shifts": float64(st.shifts)})
	tr.layer["hamiltonian.factor_count"] = float64(st.shifts)
	tr.layer["hamiltonian.factor_s"] = st.factorS
	tr.layer["hamiltonian.solve_count"] = float64(st.solveN)
	tr.layer["hamiltonian.solve_s"] = st.solveS
	tr.layer["arnoldi.sweep_s"] = st.sweepS
	tr.layer["arnoldi.self_s"] = st.sweepS - st.solveS - st.baseS
	if st.shifts > 0 {
		tr.layer["arnoldi.restarts_per_shift"] = float64(st.restarts) / float64(st.shifts)
	}
	tr.layer["trace.replay_mismatches"] = float64(st.mismatches)
	return nil
}

type replayStats struct {
	// shifts counts replayed shifts, each factored once.
	shifts, restarts, mismatches, solveN int
	factorS, solveS, baseS, sweepS       float64
}

// Solver defaults the replay reproduces (core.Options.Alpha and Seed).
const (
	coreAlpha = 1.05
	coreSeed  = 1
)

func (tr *tracer) replayShift(op *hamiltonian.Op, iv core.IntervalCheckpoint, out *core.ShiftCheckpoint, st *replayStats, parent int) error {
	width := iv.Hi - iv.Lo
	rho0 := 0.5 * coreAlpha * width
	if iv.EdgeLeft || iv.EdgeRite {
		rho0 = coreAlpha * width
	}
	params := arnoldi.SingleShiftParams{Seed: coreSeed*1_000_003 + int64(iv.ID)*7919 + 1}
	omega := iv.Shift
	nudged := omega + omega*1e-9
	if omega == 0 {
		nudged = rho0 * 1e-9
	}
	var res *arnoldi.SingleShiftResult
	var solveN int
	var solveS, baseS float64
	t0 := time.Now()
	var t1 time.Time
	if op.HalfRouted(omega, rho0) {
		h := op.Half()
		so, err := h.ShiftInvert(op.SweepTheta(omega, rho0))
		if err != nil {
			if so, err = h.ShiftInvert(op.SweepTheta(nudged, rho0)); err != nil {
				return err
			}
		}
		t1 = time.Now()
		inv := &timedRealInv{so: so}
		res, err = arnoldi.SingleShiftReal(inv, rho0*(rho0+2*omega), params)
		so.Release()
		if err != nil {
			return err
		}
		solveN, solveS, baseS = inv.n, inv.solve.Seconds(), inv.base.Seconds()
	} else {
		so, err := op.ShiftInvert(complex(0, omega))
		if err != nil {
			if so, err = op.ShiftInvert(complex(0, nudged)); err != nil {
				return err
			}
		}
		t1 = time.Now()
		inv := &timedInv{so: so}
		res, err = arnoldi.SingleShift(inv, rho0, params)
		so.Release()
		if err != nil {
			return err
		}
		solveN, solveS, baseS = inv.n, inv.solve.Seconds(), inv.base.Seconds()
	}
	t2 := time.Now()
	st.shifts++
	st.factorS += t1.Sub(t0).Seconds()
	st.solveN += solveN
	st.solveS += solveS
	st.baseS += baseS
	st.sweepS += t2.Sub(t1).Seconds()
	st.restarts += res.Restarts
	if res.Restarts != out.Restarts || res.OpApplies != out.OpApplies {
		st.mismatches++
	}
	id := tr.addSpan(parent, "shift", t0, t2, map[string]float64{"omega": omega, "restarts": float64(res.Restarts)})
	tr.addSpan(id, "hamiltonian.factor", t0, t1, nil)
	tr.addSpan(id, "arnoldi.sweep", t1, t2, map[string]float64{"solve_s": solveS, "solves": float64(solveN)})
	return nil
}

// timedInv counts and times the shift-invert solves of the complex sweep.
type timedInv struct {
	so          *hamiltonian.ShiftOp
	n           int
	solve, base time.Duration
}

func (t *timedInv) Dim() int          { return t.so.Dim() }
func (t *timedInv) Theta() complex128 { return t.so.Theta() }
func (t *timedInv) Apply(y, x []complex128) error {
	t0 := time.Now()
	err := t.so.Apply(y, x)
	t.solve += time.Since(t0)
	t.n++
	return err
}

// ApplyBase forwards the plain operator apply the sweep uses for residuals.
func (t *timedInv) ApplyBase(y, x []complex128) error {
	t0 := time.Now()
	err := t.so.ApplyBase(y, x)
	t.base += time.Since(t0)
	return err
}

// timedRealInv is timedInv for the half-size real sweep.
type timedRealInv struct {
	so          *hamiltonian.HalfShiftOp
	n           int
	solve, base time.Duration
}

func (t *timedRealInv) Dim() int          { return t.so.Dim() }
func (t *timedRealInv) Theta() complex128 { return t.so.Theta() }
func (t *timedRealInv) Apply(y, x []float64) error {
	t0 := time.Now()
	err := t.so.Apply(y, x)
	t.solve += time.Since(t0)
	t.n++
	return err
}

func (t *timedRealInv) ApplyBase(y, x []float64) error {
	t0 := time.Now()
	err := t.so.ApplyBase(y, x)
	t.base += time.Since(t0)
	return err
}

// singleThreaded is the Fig. 6 baseline: the same model at Threads=1,
// whose work counts repeat exactly on any host.
func (tr *tracer) singleThreaded(s *charSession) error {
	t0 := time.Now()
	rep, err := passivity.Characterize(s.m, passivity.Options{Core: core.Options{Threads: 1}})
	if err != nil {
		return err
	}
	t1 := time.Now()
	if s.ref.check(refFromReport(rep)) != nil {
		tr.failed++
		fmt.Fprintln(os.Stderr, "perfbench: Threads=1 report differs from the reference")
	}
	tr.addSpan(0, "characterize.threads1", t0, t1, nil)
	tr.layer["core.t1_s"] = t1.Sub(t0).Seconds()
	tr.layer["core.t1_shifts"] = float64(rep.Solver.ShiftsProcessed)
	tr.layer["core.t1_op_applies"] = float64(rep.Solver.OpApplies)
	tr.layer["core.t1_restarts"] = float64(rep.Solver.Restarts)
	return nil
}

// storeProbe shuts the daemon down, keeping its store, then measures the
// log the run wrote and how long a restarting daemon takes to replay it.
// It also charges the engine-wide shift-cache traffic evenly to the jobs.
func (tr *tracer) storeProbe(s *serviceSession) error {
	if err := s.shutdown(false); err != nil {
		return err
	}
	defer os.RemoveAll(s.dir)
	data, err := os.ReadFile(s.storePath())
	if err != nil {
		return err
	}
	records := 0
	for off := len("PSVJLOG1"); off+8 <= len(data); records++ {
		off += 8 + int(binary.LittleEndian.Uint32(data[off:]))
	}
	jobs := float64(max(1, s.submitted.Load()))
	tr.layer["hamiltonian.cache_hits"] = float64(s.cache.Hits) / jobs
	tr.layer["hamiltonian.cache_misses"] = float64(s.cache.Misses) / jobs
	tr.layer["store.bytes_per_job"] = float64(len(data)) / jobs
	tr.layer["store.records_per_job"] = float64(records) / jobs
	t0 := time.Now()
	st, err := store.Open(s.storePath())
	if err != nil {
		return err
	}
	t1 := time.Now()
	tr.addSpan(0, "store.replay", t0, t1, map[string]float64{"jobs": float64(len(st.Recovered()))})
	tr.layer["store.replay_s"] = t1.Sub(t0).Seconds()
	return st.Close()
}

// perLayer turns a traced run into its result line.
func (tr *tracer) perLayer(m *measurement) *result {
	var lat, latUntraced []float64
	failed := m.warmupFail + tr.failed
	for _, j := range tr.untraced {
		if j.err == nil {
			latUntraced = append(latUntraced, j.latency)
		} else {
			failed++
		}
	}
	var stats []core.Stats
	var wait, perturb, iters, jobHits, jobMisses []float64
	jobBusy := false // whether the jobs' own pool clients report busy time
	marks := map[string][]float64{}
	for _, j := range tr.traced {
		if j.err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "perfbench: traced job:", j.err)
			continue
		}
		lat = append(lat, j.latency)
		jt := j.trace
		tr.addSpan(0, "job", jt.start, jt.end, nil)
		stats = append(stats, jt.stats...)
		jobBusy = jt.busy > 0
		wait = append(wait, j.latency-jt.busy/jobThreads)
		jt.mu.Lock()
		for k, v := range jt.marks {
			marks[k] = append(marks[k], v)
		}
		jt.mu.Unlock()
		if jt.iters > 0 {
			iters = append(iters, float64(jt.iters))
			perturb = append(perturb, jt.perturbSeconds())
			jobHits = append(jobHits, float64(jt.cache.Hits))
			jobMisses = append(jobMisses, float64(jt.cache.Misses))
		}
	}
	hits, misses := tr.layer["hamiltonian.cache_hits"], tr.layer["hamiltonian.cache_misses"]
	if len(jobHits) > 0 {
		hits, misses = median(jobHits), median(jobMisses)
	}
	n := float64(max(1, len(lat)))
	var busyTotal float64
	for _, ps := range tr.phases {
		busyTotal += ps.Busy.Seconds()
	}
	if !jobBusy {
		// passivityd owns its jobs' clients: charge the pool's busy time
		// evenly to the window's jobs.
		wait = nil
		for _, l := range lat {
			wait = append(wait, l-busyTotal/n/jobThreads)
		}
	}
	pick := func(f func(core.Stats) int) []float64 {
		out := make([]float64, len(stats))
		for i, s := range stats {
			out[i] = float64(f(s))
		}
		return out
	}
	shifts := pick(func(s core.Stats) int { return s.ShiftsProcessed })
	applies := pick(func(s core.Stats) int { return s.OpApplies })
	phase := func(name string) float64 { return tr.phases[name].Busy.Seconds() / n }
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	t1t2 := 0.0
	if t1 := tr.layer["core.t1_s"]; t1 > 0 {
		t1t2 = t1 / median(latUntraced)
	}
	overhead := 0.0
	if u := median(latUntraced); u > 0 && len(lat) > 0 {
		overhead = median(lat)/u - 1
	}
	all := append(append([]float64(nil), latUntraced...), lat...)
	attempted := m.warmupJobs + len(tr.untraced) + len(tr.traced)
	metrics := map[string]metric{
		"statespace.load_s":           {median(m.load), "s"},
		"hamiltonian.build_s":         {tr.layer["hamiltonian.build_s"], "s"},
		"hamiltonian.factor_count":    {tr.layer["hamiltonian.factor_count"], "count"},
		"hamiltonian.factor_s":        {tr.layer["hamiltonian.factor_s"], "s"},
		"hamiltonian.solve_count":     {tr.layer["hamiltonian.solve_count"], "count"},
		"hamiltonian.solve_s":         {tr.layer["hamiltonian.solve_s"], "s"},
		"hamiltonian.cache_hits":      {hits, "count"},
		"hamiltonian.cache_misses":    {misses, "count"},
		"hamiltonian.cache_hit_ratio": {ratio, "ratio"},
		"arnoldi.sweep_s":             {tr.layer["arnoldi.sweep_s"], "s"},
		"arnoldi.self_s":              {tr.layer["arnoldi.self_s"], "s"},
		"arnoldi.restarts_per_shift":  {tr.layer["arnoldi.restarts_per_shift"], "count"},
		"core.shifts":                 {median(shifts), "count"},
		"core.shifts_spread":          {spread(shifts), "count"},
		"core.tentative_deleted":      {median(pick(func(s core.Stats) int { return s.TentativeDeleted })), "count"},
		"core.restarts":               {median(pick(func(s core.Stats) int { return s.Restarts })), "count"},
		"core.op_applies":             {median(applies), "count"},
		"core.op_applies_spread":      {spread(applies), "count"},
		"core.eig_busy_s":             {phase(core.PhaseEig), "s"},
		"core.setup_busy_s":           {phase(core.PhaseSetup), "s"},
		"core.refine_busy_s":          {phase(core.PhaseRefine), "s"},
		"core.probe_busy_s":           {phase(core.PhaseProbe), "s"},
		"core.constraint_busy_s":      {phase(core.PhaseConstraint), "s"},
		"core.worker_util":            {busyTotal / (jobThreads * math.Max(tr.windowWall, 1e-9)), "ratio"},
		"core.first_crossing_s":       {median(marks["core.first_crossing"]), "s"},
		"core.t1_over_t2":             {t1t2, "ratio"},
		"core.t1_shifts":              {tr.layer["core.t1_shifts"], "count"},
		"core.t1_op_applies":          {tr.layer["core.t1_op_applies"], "count"},
		"core.t1_restarts":            {tr.layer["core.t1_restarts"], "count"},
		"passivity.iters":             {median(iters), "count"},
		"passivity.shifts_total":      {ifAny(iters, median(shifts)), "count"},
		"passivity.char_s":            {ifAny(iters, median(lat)-median(perturb)), "s"},
		"passivity.perturb_s":         {median(perturb), "s"},
		"fleet.wait_s":                {median(wait), "s"},
		"fleet.queue_depth_max":       {float64(tr.queueMax), "count"},
		"server.submit_s":             {median(marks["server.submit"]), "s"},
		"server.first_event_s":        {median(marks["server.first_event"]), "s"},
		"server.report_s":             {median(marks["server.report"]), "s"},
		"store.bytes_per_job":         {tr.layer["store.bytes_per_job"], "B"},
		"store.records_per_job":       {tr.layer["store.records_per_job"], "count"},
		"store.replay_s":              {tr.layer["store.replay_s"], "s"},
		"loadgen.jobs_measured":       {float64(len(all)), "count"},
		"loadgen.jobs_warmup":         {float64(m.warmupJobs), "count"},
		"loadgen.latency_p90_s":       {percentile(all, 0.9), "s"},
		"loadgen.failed_frac":         {float64(failed) / float64(max(1, attempted)), "ratio"},
		"trace.overhead":              {overhead, "ratio"},
		"trace.replay_mismatches":     {tr.layer["trace.replay_mismatches"], "count"},
	}
	return &result{Correct: failed == 0 && len(lat) > 0, Attempted: attempted, Failed: failed, Metrics: metrics}
}

// ifAny returns v when xs is non-empty, else 0 (a layer the workload
// bypasses).
func ifAny(xs []float64, v float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return v
}

// spread is the range of xs.
func spread(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return hi - lo
}
