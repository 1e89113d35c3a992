package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hamiltonian"
	"repro/internal/passivity"
	"repro/internal/server"
	"repro/internal/statespace"
	"repro/internal/store"
)

// jobThreads is the worker count of every job: the benchmark is sized for
// a two-core host.
const jobThreads = 2

// setupReps is how many times a run sets the program up; setup_s is the
// median.
const setupReps = 21

// runTimeout bounds one run's jobs, so a hung job fails the run instead of
// outliving the driver's limit.
const runTimeout = 150 * time.Second

// workload is one named benchmark workload.
type workload struct {
	// caseID is the Table-I case the inputs derive from (0: none).
	caseID int
	// clients is the closed loop's client count.
	clients int
	// warmup is the number of untimed, verified jobs per client.
	warmup int
	// refWarms marks workloads whose reference computation makes the same
	// library call as a job, so a freshly prepared run needs no warm-up.
	refWarms bool
	// build makes the seed's inputs and references in dir.
	build func(cfg config, w *workload, dir string) (*inputs, error)
	// open sets the program up on the stored inputs.
	open func(dir string, in *inputs) (session, error)
}

var workloads = map[string]*workload{
	"char-full": {caseID: 5, clients: 1, warmup: 1, refWarms: true, build: buildChar, open: openChar},
	"char-half": {caseID: 105, clients: 1, warmup: 1, refWarms: true, build: buildChar, open: openChar},
	"enforce":   {caseID: 2, clients: 1, warmup: 1, refWarms: true, build: buildEnforce, open: openEnforce},
	"service":   {clients: 2, warmup: 3, build: buildService, open: openService},
}

// session is the program, set up and ready for jobs.
type session interface {
	// loadSeconds is how long setup spent loading the stored models.
	loadSeconds() float64
	// job runs client c's k-th job and checks its output. jt, when non-nil,
	// collects the job's trace.
	job(ctx context.Context, c, k int, jt *jobTrace) error
	// phases and queueDepth read the telemetry of the worker pool the jobs
	// run on.
	phases() map[string]core.PhaseStat
	queueDepth() int
	close() error
}

// sample is one finished job.
type sample struct {
	latency float64
	err     error
	trace   *jobTrace
}

// measurement is what one measured window produced.
type measurement struct {
	setup      []float64
	load       []float64
	warmupJobs int
	warmupFail int
	// refWarmed marks a run warmed up by its reference computation.
	refWarmed bool
	jobs      []sample
	wall      float64
	cpu       float64
	digest    string
}

// measure sets the workload up setupReps times (keeping the last), warms
// it up unless warmup is false, and runs the closed loop for cfg.Seconds.
// With tr non-nil the window is split: the first half runs untraced, the
// second traced.
func measure(cfg config, w *workload, dir string, warmup bool, tr *tracer) (*measurement, error) {
	var err error
	m := &measurement{refWarmed: !warmup}
	if m.digest, err = inputsDigest(dir); err != nil {
		return nil, err
	}
	var s session
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		in, err := readInputs(dir)
		if err != nil {
			return nil, err
		}
		s, err = w.open(dir, in)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		m.setup = append(m.setup, since(t0))
		m.load = append(m.load, s.loadSeconds())
		if i < setupReps-1 {
			if err := s.close(); err != nil {
				return nil, err
			}
		}
	}
	defer s.close()

	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	next := make([]int, w.clients) // each client's next job index
	warm := closedLoop(w.clients, func(c int, add func(sample)) {
		for i := 0; warmup && i < w.warmup; i++ {
			add(runJob(ctx, s, c, next[c], nil))
			next[c]++
		}
	})
	for _, j := range warm {
		m.warmupJobs++
		if j.err != nil {
			m.warmupFail++
			fmt.Fprintln(os.Stderr, "perfbench: warm-up job:", j.err)
		}
	}

	window := cfg.Seconds
	if tr != nil {
		window /= 2
	}
	cpu0 := cpuSeconds()
	t0 := time.Now()
	m.jobs = closedLoopFor(w.clients, window, func(c int) sample {
		out := runJob(ctx, s, c, next[c], nil)
		next[c]++
		return out
	})
	m.wall = since(t0)
	m.cpu = cpuSeconds() - cpu0
	if tr == nil {
		return m, nil
	}
	tr.untraced = m.jobs
	t0 = time.Now()
	before := s.phases()
	stop := tr.sampleQueue(s.queueDepth)
	tr.traced = closedLoopFor(w.clients, window, func(c int) sample {
		out := runJob(ctx, s, c, next[c], tr.newJob())
		next[c]++
		return out
	})
	stop()
	tr.windowWall = since(t0)
	tr.phases = phaseDelta(before, s.phases())
	return m, tr.post(ctx, w, s)
}

func runJob(ctx context.Context, s session, c, k int, jt *jobTrace) sample {
	t0 := time.Now()
	err := s.job(ctx, c, k, jt)
	out := sample{latency: since(t0), err: err, trace: jt}
	if jt != nil {
		jt.end = time.Now()
	}
	return out
}

// closedLoop runs fn for every client concurrently, waits for all, and
// returns the samples they added.
func closedLoop(clients int, fn func(c int, add func(sample))) []sample {
	var mu sync.Mutex
	var all []sample
	add := func(s sample) {
		mu.Lock()
		all = append(all, s)
		mu.Unlock()
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c, add)
		}(c)
	}
	wg.Wait()
	return all
}

// closedLoopFor runs each client's jobs back to back, starting new ones
// until seconds have passed, and returns every finished job.
func closedLoopFor(clients int, seconds float64, job func(c int) sample) []sample {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	return closedLoop(clients, func(c int, add func(sample)) {
		for time.Now().Before(deadline) {
			add(job(c))
		}
	})
}

// endToEnd turns a measurement into the untraced result line.
func (m *measurement) endToEnd() *result {
	var lat []float64
	failed := m.warmupFail
	for _, j := range m.jobs {
		if j.err != nil {
			failed++
			fmt.Fprintln(os.Stderr, "perfbench: job:", j.err)
			continue
		}
		lat = append(lat, j.latency)
	}
	attempted := len(m.jobs) + m.warmupJobs
	res := &result{
		Correct:   failed == 0 && len(lat) > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":       {median(m.setup), "s"},
			"latency_p50_s": {median(lat), "s"},
			"jobs_per_s":    {float64(len(lat)) / m.wall, "1/s"},
			"cpu_s_per_job": {m.cpu / float64(max(1, len(m.jobs))), "s"},
			"peak_rss_mb":   {peakRSSMB(), "MB"},
		},
	}
	m.detail(lat)
	return res
}

// detail prints the run's health facts to stderr: the inputs digest, how
// many warm-up jobs ran (all verified, none timed), and the sample count
// behind each latency percentile.
func (m *measurement) detail(lat []float64) {
	d := map[string]any{
		"inputs_digest":  m.digest,
		"jobs_warmup":    m.warmupJobs,
		"warmed_by_ref":  m.refWarmed,
		"warmup_failed":  m.warmupFail,
		"jobs_measured":  len(m.jobs),
		"latency_p50_s":  median(lat),
		"latency_p90_s":  percentile(lat, 0.9),
		"latency_counts": len(lat),
	}
	data, _ := json.Marshal(d)
	fmt.Fprintln(os.Stderr, "perfbench-detail", string(data))
}

// percentile returns the q-quantile of xs, or 0 when fewer than ten
// samples lie beyond it.
func percentile(xs []float64, q float64) float64 {
	if float64(len(xs))*(1-q) < 10 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(q*float64(len(s)-1)+0.5)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// ---- characterization (char-full, char-half) ----

type charSession struct {
	m    *statespace.Model
	ref  reference
	p    *core.Pool
	load float64
}

func openChar(dir string, in *inputs) (session, error) {
	t0 := time.Now()
	m, err := statespace.LoadModel(filepath.Join(dir, "model-00.gob"))
	if err != nil {
		return nil, err
	}
	return &charSession{m: m, ref: in.Refs[0], p: core.NewPool(jobThreads), load: since(t0)}, nil
}

func (s *charSession) loadSeconds() float64              { return s.load }
func (s *charSession) phases() map[string]core.PhaseStat { return s.p.PhaseStats() }
func (s *charSession) queueDepth() int                   { return s.p.QueueDepth() }
func (s *charSession) close() error                      { s.p.Close(); return nil }

func (s *charSession) job(ctx context.Context, _, _ int, jt *jobTrace) error {
	opts := passivity.Options{Core: core.Options{Threads: jobThreads, Pool: s.p}}
	if jt != nil {
		jt.hook(&opts.Core, s.p)
	}
	rep, err := passivity.CharacterizeContext(ctx, s.m, opts)
	if err != nil {
		return err
	}
	if jt != nil {
		jt.stats = []core.Stats{rep.Solver}
		jt.busy = opts.Core.Client.BusyTime().Seconds()
	}
	return s.ref.check(refFromReport(rep))
}

// ---- enforcement ----

// enforceSession runs enforcement the way a fleet engine does: on a shared
// pool, with one engine-wide operator cache whose shift-factorization
// cache every iteration's re-characterization shares.
type enforceSession struct {
	charSession
	ops *hamiltonian.OpCache
}

func openEnforce(dir string, in *inputs) (session, error) {
	s, err := openChar(dir, in)
	if err != nil {
		return nil, err
	}
	return &enforceSession{charSession: *s.(*charSession), ops: hamiltonian.NewOpCache(fleet.DefaultShiftCacheSize)}, nil
}

func (s *enforceSession) job(ctx context.Context, _, _ int, jt *jobTrace) error {
	opts := passivity.EnforceOptions{Char: passivity.Options{Core: core.Options{Threads: jobThreads, Pool: s.p}, Ops: s.ops}}
	var cache0 hamiltonian.CacheStats
	if jt != nil {
		jt.hook(&opts.Char.Core, s.p)
		opts.Checkpoint = jt.enforceCheckpoint
		cache0 = s.ops.ShiftCache().Stats()
	}
	out, rep, err := passivity.EnforceContext(ctx, s.m, opts)
	if err != nil {
		return err
	}
	if jt != nil {
		jt.stats = []core.Stats{rep.SolverTotals}
		jt.iters = rep.Iterations
		jt.busy = opts.Char.Core.Client.BusyTime().Seconds()
		c := s.ops.ShiftCache().Stats()
		jt.cache = hamiltonian.CacheStats{Hits: c.Hits - cache0.Hits, Misses: c.Misses - cache0.Misses}
	}
	return s.ref.check(refFromEnforce(out, rep))
}

// ---- passivityd over HTTP (service) ----

type serviceSession struct {
	in      *inputs
	bodies  [][]byte
	dir     string // the fresh store's directory
	st      *store.Store
	eng     *fleet.Engine
	srv     *server.Server
	hs      *http.Server
	served  chan error
	base    string
	clients []*http.Client
	load    float64
	// submitted counts accepted submissions (every one is in the store).
	submitted atomic.Int64
	// cache is the engine's shift-cache traffic, read at shutdown.
	cache hamiltonian.CacheStats
}

// serviceRunSeq numbers the stores of one process's setups.
var serviceRunSeq int

func openService(dir string, in *inputs) (session, error) {
	s := &serviceSession{in: in}
	t0 := time.Now()
	for i := range in.Refs {
		body, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("spec-%02d.json", i)))
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, body)
	}
	s.load = since(t0)
	serviceRunSeq++
	s.dir = filepath.Join(filepath.Dir(filepath.Dir(dir)), "stores", fmt.Sprintf("%d-%d", os.Getpid(), serviceRunSeq))
	if err := os.RemoveAll(s.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	st, err := store.Open(filepath.Join(s.dir, "jobs.jlog"))
	if err != nil {
		return nil, err
	}
	s.st = st
	s.eng = fleet.NewEngine(fleet.EngineOptions{Workers: jobThreads})
	s.srv = server.New(server.Config{Engine: s.eng, Store: st})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.eng.Close()
		st.Close()
		return nil, err
	}
	s.base = "http://" + ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	for range in.Order {
		// One keep-alive connection per client.
		s.clients = append(s.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	resp, err := s.clients[0].Get(s.base + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serviceSession) loadSeconds() float64              { return s.load }
func (s *serviceSession) phases() map[string]core.PhaseStat { return s.eng.PhaseStats() }
func (s *serviceSession) queueDepth() int                   { return s.eng.QueueDepth() }

// storePath is the durable log of this session.
func (s *serviceSession) storePath() string { return filepath.Join(s.dir, "jobs.jlog") }

func (s *serviceSession) close() error {
	return s.shutdown(true)
}

// shutdown drains the daemon, stops the listener, engine and store, and,
// when remove is set, deletes the store.
func (s *serviceSession) shutdown(remove bool) error {
	if s.hs == nil {
		return nil
	}
	s.srv.BeginDrain()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.DrainJobs(ctx)
	if e := s.hs.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-s.served; err == nil && !errors.Is(e, http.ErrServerClosed) {
		err = e
	}
	s.hs = nil
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	s.eng.Close()
	s.cache = s.eng.ShiftCacheStats()
	if e := s.st.Close(); err == nil {
		err = e
	}
	if remove {
		if e := os.RemoveAll(s.dir); err == nil {
			err = e
		}
	}
	return err
}

func (s *serviceSession) job(ctx context.Context, c, k int, jt *jobTrace) error {
	order := s.in.Order[c]
	idx := order[k%len(order)]
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/jobs", bytes.NewReader(s.bodies[idx]))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.clients[c].Do(req)
	if err != nil {
		return err
	}
	var accepted struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: %s", resp.Status)
	}
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	s.submitted.Add(1)
	if jt != nil {
		jt.mark("server.submit", t0)
	}
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/jobs/"+accepted.ID+"/events", nil)
	if err != nil {
		return err
	}
	resp, err = s.clients[c].Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	typ, data, err := readSSE(resp.Body, func(event string) {
		if jt == nil {
			return
		}
		jt.markOnce("server.first_event", t0)
		if event == "crossing" {
			jt.markOnce("core.first_crossing", t0)
		}
	})
	if err != nil {
		return err
	}
	if jt != nil {
		jt.mark("server.report", t0)
	}
	if typ != "report" {
		return fmt.Errorf("job %s ended with %q: %s", accepted.ID, typ, data)
	}
	var doc struct {
		Report *server.ReportDoc `json:"report"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || doc.Report == nil {
		return fmt.Errorf("job %s: bad report event: %v", accepted.ID, err)
	}
	if jt != nil {
		r := doc.Report.Solver
		jt.stats = []core.Stats{{ShiftsProcessed: r.ShiftsProcessed, TentativeDeleted: r.TentativeDeleted, Restarts: r.Restarts, OpApplies: r.OpApplies}}
	}
	return s.in.Refs[idx].check(refFromDoc(doc.Report))
}

// readSSE follows an event stream to its terminal event (report,
// canceled or error) and returns that event's type and data. onEvent sees
// every event type as it arrives.
func readSSE(r io.Reader, onEvent func(string)) (string, []byte, error) {
	br := bufio.NewReader(r)
	var event string
	var data []byte
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return "", nil, fmt.Errorf("event stream ended early: %w", err)
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			data = []byte(line[len("data: "):])
		case line == "" && event != "":
			onEvent(event)
			switch event {
			case "report", "canceled", "error":
				_, _ = io.Copy(io.Discard, br)
				return event, data, nil
			}
			event, data = "", nil
		}
	}
}

func phaseDelta(before, after map[string]core.PhaseStat) map[string]core.PhaseStat {
	out := make(map[string]core.PhaseStat, len(after))
	for k, a := range after {
		b := before[k]
		out[k] = core.PhaseStat{Tasks: a.Tasks - b.Tasks, Busy: a.Busy - b.Busy}
	}
	return out
}
