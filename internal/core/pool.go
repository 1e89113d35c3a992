package core

import (
	"errors"
	"sync"
	"time"
)

// ErrPoolClosed is returned by Submit/RunBatch on a closed pool, and
// reported by Wait for jobs whose remaining work was discarded by Close.
var ErrPoolClosed = errors.New("core: worker pool closed")

// PriorityClass selects the scheduling tier of a Client's tasks. Workers
// always pop from the highest non-empty class, so every queued task of a
// higher class runs before any queued task of a lower one — preemption at
// task granularity (in-flight tasks are never interrupted).
type PriorityClass int

const (
	// PriorityBatch is the default class: throughput work (bulk
	// enforcement sweeps, benchmark batches).
	PriorityBatch PriorityClass = iota
	// PriorityInteractive is the latency class: a characterization a user
	// is waiting on overtakes all queued batch work.
	PriorityInteractive

	numPriorityClasses
)

// Phase labels for the pool's per-phase execution counters. Every task
// names the compute phase it belongs to; PhaseStats aggregates executed
// tasks and busy time per label, which is how cmd/benchtable's fleet leg
// tracks worker utilization outside the eigensolver phase.
const (
	// PhaseEig is a tentative-interval shift task of a multi-shift solve.
	PhaseEig = "eig"
	// PhaseSetup is a retired label: no task runs under it any more (each
	// shift's SMW setup is factored lazily inside its PhaseEig task). It
	// is kept so per-phase readers of PhaseStats keep compiling; its
	// counters always read zero.
	PhaseSetup = "setup"
	// PhaseProbe is a per-band σ_max probe of passivity.classifyBands.
	PhaseProbe = "probe"
	// PhaseConstraint is a per-band constraint-assembly task of
	// passivity enforcement.
	PhaseConstraint = "constraint"
	// PhaseSample is a per-ω σ evaluation of the sampling baseline.
	PhaseSample = "sample"
	// PhaseFit is a Vector Fitting task: one column's pole-relocation
	// iteration (with its convergence-monitor residue solve) or final
	// residue LS solve (vectfit.Fitter).
	PhaseFit = "fit"
	// PhaseRefine is an eigenvalue-refinement task of a solve's collect
	// tail: a structured inverse-iteration polish of one near-axis
	// candidate or one canonical-polish re-refinement (each re-factors a
	// shift-invert operator).
	PhaseRefine = "refine"
)

// PhaseStat aggregates the pool-worker work spent in one compute phase.
type PhaseStat struct {
	// Tasks is the number of tasks of this phase executed by workers.
	Tasks int
	// Busy is the cumulative worker time spent executing them.
	Busy time.Duration
}

// task is one unit of pool work: a closure (batch tasks) or a tentative
// eigensolver interval, owned by a Client (its scheduling identity) and
// labeled with its compute phase. Exactly one of run and iv is set.
type task struct {
	client *Client
	phase  string

	// Batch task: run executes on a worker; abort is called instead when
	// the pool closes with the task still queued (it must unblock the
	// batch join); batch identifies siblings so a failed/canceled batch
	// can purge its queued remainder, and is counted down by execute once
	// the task's phase statistics are recorded.
	run   func(worker int)
	abort func()
	batch *batch

	// Eigensolver task: the tentative interval and its owning Job.
	iv  *interval
	job *Job
}

// Client is a scheduling identity registered with a Pool: every task it
// submits (eigensolver intervals via Submit, generic batches via RunBatch)
// is queued FIFO under the client and competes with other clients under
// the client's priority class and weighted-round-robin share. A fleet job
// uses one client across all of its compute phases; a standalone Solve
// gets an ephemeral one.
//
// Clients hold no resources and need no teardown; all fields below mu are
// guarded by the owning pool's mutex.
type Client struct {
	pool   *Pool
	pri    PriorityClass
	weight int

	queue  []*task       // this client's pending tasks, FIFO
	credit int           // WRR pops left before the client rotates to the back
	queued bool          // client is in its class ring
	busy   time.Duration // cumulative worker time spent on this client's tasks
}

// ClientOptions configures a pool client.
type ClientOptions struct {
	// Priority selects the scheduling class (default PriorityBatch).
	Priority PriorityClass
	// Weight is the weighted-round-robin share relative to other clients
	// of the same class: a weight-2 client gets two task pops per round
	// for every one of a weight-1 client. Minimum (and default) 1.
	Weight int
}

// NewClient registers a scheduling identity with the pool.
func (p *Pool) NewClient(o ClientOptions) *Client {
	if o.Weight < 1 {
		o.Weight = 1
	}
	if o.Priority < 0 || o.Priority >= numPriorityClasses {
		o.Priority = PriorityBatch
	}
	return &Client{pool: p, pri: o.Priority, weight: o.Weight}
}

// Pool returns the pool the client is registered with.
func (c *Client) Pool() *Pool { return c.pool }

// BusyTime returns the cumulative worker time spent executing this
// client's tasks — the job's actual compute cost on the pool, as opposed
// to its wall-clock latency, which on a contended pool also counts time
// spent queued behind other clients' work. Telemetry only; it never feeds
// numeric state.
func (c *Client) BusyTime() time.Duration {
	c.pool.mu.Lock()
	defer c.pool.mu.Unlock()
	return c.busy
}

// Pool is a fixed set of worker goroutines shared by any number of
// concurrent jobs. It is a phase-agnostic task executor: multi-shift
// eigensolver solves feed it tentative-interval tasks (Submit), and the
// non-eigensolver phases — σ_max band probes, enforcement constraint
// assembly, sampling sweeps — feed it closure batches (Client.RunBatch),
// so a fleet machine stays exactly full between eigensolver phases too.
// A standalone Solve is the degenerate case: a private pool with
// Options.Threads workers and a single job.
//
// Scheduling is two-level. Tasks are queued FIFO per Client; clients with
// pending work sit in one round-robin ring per priority class. A worker
// pops from the highest non-empty class (interactive work overtakes batch
// work at task granularity) and rotates through that class's clients by
// weighted round robin, so equal-priority jobs share the workers fairly
// instead of the oldest job monopolizing them. Per-client FIFO preserves
// the paper's interval pick order (Sec. IV-B/C/D) within each solve; the
// per-job scheduler state itself lives on Job. Everything is serialized
// by mu; cond wakes workers when tasks appear.
type Pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	rings   [numPriorityClasses][]*Client // clients with pending tasks, WRR order
	phase   map[string]PhaseStat
	closed  bool
	workers int
	wg      sync.WaitGroup
}

// NewPool starts a pool with the given number of workers (minimum 1).
// Callers must Close it to release the worker goroutines.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := newIdlePool(workers)
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker(w)
	}
	return p
}

// newIdlePool builds the pool state without spawning workers (used directly
// by scheduler unit tests that drive the queue synchronously).
func newIdlePool(workers int) *Pool {
	p := &Pool{workers: workers, phase: make(map[string]PhaseStat)}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Workers returns the worker count the pool was created with.
func (p *Pool) Workers() int { return p.workers }

// QueueDepth returns the number of tasks currently queued (not yet picked
// up by a worker) across all clients and priority classes. Observational
// only — the value can change the instant the lock is released.
func (p *Pool) QueueDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	depth := 0
	for class := range p.rings {
		for _, c := range p.rings[class] {
			depth += len(c.queue)
		}
	}
	return depth
}

// PhaseStats returns a snapshot of the per-phase execution counters:
// tasks executed and cumulative worker-busy time, keyed by phase label
// (PhaseEig, PhaseProbe, ...).
func (p *Pool) PhaseStats() map[string]PhaseStat {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]PhaseStat, len(p.phase))
	//lint:ignore detfloat map-to-map snapshot copy; iteration order cannot affect the result
	for k, v := range p.phase {
		out[k] = v
	}
	return out
}

// Close discards all queued tasks (failing their jobs and batches with
// ErrPoolClosed), lets in-flight tasks finish, and blocks until every
// worker has exited. Closing an already-closed pool is a no-op.
func (p *Pool) Close() {
	p.mu.Lock()
	var aborts []func()
	if !p.closed {
		p.closed = true
		orphaned := make(map[*Job]bool)
		for class := range p.rings {
			for _, c := range p.rings[class] {
				for _, t := range c.queue {
					if t.iv != nil {
						t.job.pending--
						orphaned[t.job] = true
					} else if t.abort != nil {
						aborts = append(aborts, t.abort)
					}
				}
				c.queue = nil
				c.queued = false
			}
			p.rings[class] = nil
		}
		//lint:ignore detfloat order-free drain of the orphaned-job set; each job is finalized independently
		for j := range orphaned {
			if j.err == nil {
				j.err = ErrPoolClosed
			}
			j.maybeFinishLocked()
		}
		p.cond.Broadcast()
	}
	p.mu.Unlock()
	// Aborts close batch done channels; run them outside mu so joiners can
	// wake without lock-ordering concerns.
	for _, a := range aborts {
		a()
	}
	p.wg.Wait()
}

// enqueueLocked appends a task to its client's FIFO and makes sure the
// client is in its class ring. Callers broadcast cond after enqueueing.
func (p *Pool) enqueueLocked(t *task) {
	c := t.client
	c.queue = append(c.queue, t)
	if !c.queued {
		c.queued = true
		c.credit = c.weight
		p.rings[c.pri] = append(p.rings[c.pri], c)
	}
}

// worker is the pool's work loop: take the next runnable task under the
// priority/fairness policy, execute it, account its phase.
func (p *Pool) worker(id int) {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		var t *task
		for {
			t = p.popLocked()
			if t != nil || p.closed {
				break
			}
			p.cond.Wait()
		}
		p.mu.Unlock()
		if t == nil {
			return
		}
		p.execute(t, id)
	}
}

// execute runs one admitted task on the calling goroutine and accounts
// its phase and client busy time. Shared by the worker loop and the
// mid-shift yield path.
func (p *Pool) execute(t *task, worker int) {
	//lint:ignore detfloat worker busy-time telemetry only; it never feeds numeric state
	start := time.Now()
	if t.iv != nil {
		// The interval task books itself inside the critical section that
		// commits its completion: the job can finish there, and whoever
		// its end wakes must already see the task in PhaseStats.
		t.job.runInterval(p, worker, t, start)
		return
	}
	t.run(worker)
	p.mu.Lock()
	p.bookLocked(t, start)
	p.mu.Unlock()
	if t.batch != nil {
		// Count the task down only now: RunBatch's join must not return
		// before the task shows up in PhaseStats.
		t.batch.finishOne()
	}
}

// bookLocked accounts an executed task, started at start, to its phase's
// PhaseStats and its client's busy time.
func (p *Pool) bookLocked(t *task, start time.Time) {
	//lint:ignore detfloat worker busy-time telemetry only; it never feeds numeric state
	busy := time.Since(start)
	s := p.phase[t.phase]
	s.Tasks++
	s.Busy += busy
	p.phase[t.phase] = s
	t.client.busy += busy
}

// YieldInteractive runs queued interactive-class tasks to exhaustion on
// the calling goroutine. It is the cooperative mid-shift preemption
// point: a batch-class shift invokes it at every Arnoldi restart
// boundary (via arnoldi.SingleShiftParams.Yield), so an interactive
// job's first pop latency is bounded by one restart sweep instead of a
// whole shift. Admission, fairness, and accounting are identical to a
// worker pop — the yield only changes WHEN the interactive task runs,
// never with what data, so results stay bit-identical. Interactive tasks
// themselves never yield, bounding the inline nesting at depth one; the
// yielding task's own busy-time measurement includes the inline work
// (telemetry skew only, documented in PhaseStats consumers).
func (p *Pool) YieldInteractive(worker int) {
	for {
		p.mu.Lock()
		t := p.popClassLocked(int(PriorityInteractive))
		p.mu.Unlock()
		if t == nil {
			return
		}
		p.execute(t, worker)
	}
}

// popLocked removes and admits the next runnable task: highest priority
// class first, weighted round robin across that class's clients, FIFO
// within a client. Skipped tasks (failed jobs, exhausted shift budgets)
// are accounted on the fly. Returns nil when no runnable work is queued.
func (p *Pool) popLocked() *task {
	for class := int(numPriorityClasses) - 1; class >= 0; class-- {
		if t := p.popClassLocked(class); t != nil {
			return t
		}
	}
	return nil
}

// popClassLocked removes and admits the next runnable task of one
// priority class (weighted round robin across the class's clients, FIFO
// within a client), or nil when the class has none.
func (p *Pool) popClassLocked(class int) *task {
	ring := p.rings[class]
	for len(ring) > 0 {
		c := ring[0]
		t := c.nextRunnableLocked(p)
		switch {
		case t == nil || len(c.queue) == 0:
			// Drained (possibly by skips): leave the ring; credit is
			// re-armed on re-entry.
			ring = ring[1:]
			c.queued = false
		default:
			c.credit--
			if c.credit <= 0 {
				ring = append(ring[1:], c)
				c.credit = c.weight
			}
		}
		if t != nil {
			p.rings[class] = ring
			return t
		}
	}
	p.rings[class] = ring
	return nil
}

// nextRunnableLocked pops the client's oldest runnable task, skipping (and
// accounting for) eigensolver tasks of failed jobs and enforcing each
// job's shift budget. Returns nil when the client queue holds no runnable
// work.
func (c *Client) nextRunnableLocked(p *Pool) *task {
	for len(c.queue) > 0 {
		t := c.queue[0]
		c.queue = c.queue[1:]
		if t.iv == nil {
			return t
		}
		j := t.job
		j.pending--
		if j.err != nil {
			j.maybeFinishLocked()
			continue
		}
		if j.processed >= j.opts.MaxShifts {
			j.failLocked(p, errShiftBudget(j.opts.MaxShifts))
			continue
		}
		j.processed++
		j.inflight++
		// Track the in-flight interval: its result is not committed yet,
		// so checkpoint snapshots must include it in the uncovered set.
		j.running = append(j.running, t.iv)
		return t
	}
	return nil
}
