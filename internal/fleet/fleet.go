// Package fleet is the multi-model job engine: it accepts many passivity
// characterization and enforcement jobs and runs all of them on ONE shared
// worker pool (internal/core.Pool) sized to the machine, instead of letting
// each solve spin up its own thread pool and oversubscribe the host.
//
// The workloads are embarrassingly parallel across models (the
// Grivet-Talocia adaptive-sampling baseline, paper ref. [17], exploits the
// same structure), but per-solve pools compose badly: N concurrent solves
// × T threads each is N·T runnable goroutines fighting for T cores,
// trashing caches exactly in the memory-bound Arnoldi hot path. Here every
// compute phase of every job — eigensolver shifts, σ_max band probes,
// enforcement constraint assembly — feeds the one pool as tasks of the
// job's scheduling client, so the machine stays exactly full and a small
// job finishing early immediately donates its workers to the big ones.
//
// The engine adds production semantics on top of the pool:
//
//   - bounded admission: EngineOptions.MaxQueued caps admitted-but-
//     unfinished jobs; Submit blocks (or fails fast with ErrQueueFull)
//     until a slot frees, and errors cleanly with ErrEngineClosed if the
//     engine closes while it waits;
//   - per-job priority classes: a Request with core.PriorityInteractive
//     overtakes queued batch work at task-pop granularity;
//   - weighted round-robin fairness across equal-priority jobs, instead
//     of the oldest job monopolizing the workers.
//
// Cancellation is per-job via contexts; the completion guarantee (the
// certified disks of a finished job cover its whole search band) is
// per-job and unaffected by sharing.
//
// Invariants: one scheduling client spans every compute phase of a job
// (shifts, probes, constraints, refinement tails), so priority and
// fairness apply to the job as a whole; job results are bit-identical to
// standalone runs of the same request (fleetbench asserts this across all
// twelve Table-I cases).
//
// Concurrency: Engine methods are safe for concurrent use. Submit may
// block on admission; each job is coordinated by one goroutine that is
// NOT a pool worker, so batch joins inside the job cannot deadlock the
// pool. NewClient hands out identities for pool-routed work outside
// Submit (e.g. Vector Fitting on the engine's pool).
package fleet

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/passivity"
	"repro/internal/statespace"
)

// ErrEngineClosed is returned by Submit after (or during) Close.
var ErrEngineClosed = errors.New("fleet: engine closed")

// ErrQueueFull is returned by Submit on a FailFast engine whose admission
// queue is at MaxQueued.
var ErrQueueFull = errors.New("fleet: admission queue full")

// EngineOptions configures an engine.
type EngineOptions struct {
	// Workers sizes the shared pool (≤ 0 means GOMAXPROCS).
	Workers int
	// MaxQueued caps the number of admitted-but-unfinished jobs; further
	// Submits block until a slot frees (or fail fast, see FailFast).
	// 0 means unbounded — the pre-admission-control behavior.
	//
	// Admission is priority-blind: it bounds resources, not latency, so a
	// PriorityInteractive Submit waits for a slot behind batch jobs like
	// any other. Priority takes effect after admission, at task-pop
	// granularity. Deployments that must never stall interactive submits
	// should size MaxQueued with headroom for them (or keep it 0).
	MaxQueued int
	// FailFast makes Submit return ErrQueueFull immediately instead of
	// blocking when MaxQueued jobs are in flight.
	FailFast bool
}

// Engine owns the shared worker pool and tracks in-flight jobs.
type Engine struct {
	pool     *core.Pool
	sem      chan struct{} // admission slots, nil when unbounded
	failFast bool

	mu       sync.Mutex
	closed   bool
	closedCh chan struct{} // closed by Close; wakes Submits blocked on admission
	wg       sync.WaitGroup
}

// New starts an engine whose shared pool has the given worker count
// (≤ 0 means GOMAXPROCS) and unbounded admission. Close it to release the
// workers.
func New(workers int) *Engine {
	return NewEngine(EngineOptions{Workers: workers})
}

// NewEngine starts an engine with full production options.
func NewEngine(o EngineOptions) *Engine {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		pool:     core.NewPool(w),
		failFast: o.FailFast,
		closedCh: make(chan struct{}),
	}
	if o.MaxQueued > 0 {
		e.sem = make(chan struct{}, o.MaxQueued)
	}
	return e
}

// Workers returns the shared pool's worker count.
func (e *Engine) Workers() int { return e.pool.Workers() }

// QueueDepth returns the number of tasks currently queued on the shared
// pool (all jobs, all phases). Observational only.
func (e *Engine) QueueDepth() int { return e.pool.QueueDepth() }

// Admission reports the admission queue's occupancy: slots in use by
// admitted-but-unfinished jobs and the total capacity (0, 0 when the
// engine was built with unbounded admission). Observational only.
func (e *Engine) Admission() (used, capacity int) {
	if e.sem == nil {
		return 0, 0
	}
	return len(e.sem), cap(e.sem)
}

// PhaseStats snapshots the shared pool's per-phase execution counters
// (tasks + busy time per compute phase: core.PhaseEig, core.PhaseProbe,
// core.PhaseConstraint, ...). cmd/fleetbench derives per-phase worker
// utilization from it.
func (e *Engine) PhaseStats() map[string]core.PhaseStat { return e.pool.PhaseStats() }

// NewClient registers a scheduling identity on the engine's shared pool
// for pool-routed work that does not go through Submit — e.g. a Vector
// Fitting run (vectfit.Options.Client) feeding models into the fleet, or a
// solve driven directly via core.Options.Client. Tasks submitted under the
// client compete with the engine's jobs under the same priority/fairness
// policy. Clients hold no resources and need no teardown, but they become
// useless once the engine is closed (their batches fail with
// core.ErrPoolClosed).
func (e *Engine) NewClient(pri core.PriorityClass, weight int) *core.Client {
	return e.pool.NewClient(core.ClientOptions{Priority: pri, Weight: weight})
}

// Request is one unit of work for the engine.
type Request struct {
	// Model to analyze. Required.
	Model *statespace.Model
	// Char configures the characterization when Enforce is nil. Its
	// Core.Pool/Core.Client fields are managed by the engine; Core.Threads
	// may stay zero to default to the pool width.
	Char passivity.Options
	// Enforce, when non-nil, turns the job into an enforcement run with
	// these options (the characterization options then come from
	// Enforce.Char, not from the Char field above).
	Enforce *passivity.EnforceOptions
	// Priority selects the job's scheduling class on the shared pool:
	// core.PriorityInteractive tasks pop before any queued batch-class
	// task, so a characterization a user is waiting on overtakes bulk
	// enforcement at task granularity. Default core.PriorityBatch. Note
	// that priority applies after admission — see EngineOptions.MaxQueued
	// for the interaction with a bounded queue.
	Priority core.PriorityClass
	// Weight is the job's weighted-round-robin share against other jobs
	// of the same class (a weight-2 job gets twice the task pops of a
	// weight-1 job while both have work queued). Minimum (and default) 1.
	Weight int
	// Progress, when non-nil, receives observational solver-progress
	// events for this job (see core.Options.Progress for the delivery
	// contract: concurrent, post-commit, never able to perturb the
	// result). It overrides any callback already set in Char.Core /
	// Enforce.Char.Core.
	Progress func(core.ProgressEvent)
	// Checkpoint, when non-nil, receives the job's durable eigensolver
	// checkpoints (see core.Options.Checkpoint). For characterization jobs
	// it observes the whole solve; for enforcement jobs the engine leaves
	// it unset on the inner re-characterizations (enforcement persists at
	// iteration granularity instead — see EnforceCheckpoint). It overrides
	// any callback already set in Char.Core.
	Checkpoint func(core.Checkpoint)
	// Resume, when non-nil, restarts a characterization job from a replayed
	// checkpoint prefix (see core.Options.Resume). Ignored for enforcement
	// jobs.
	Resume *core.ResumeState
	// EnforceCheckpoint, when non-nil, receives an enforcement job's
	// iteration-boundary checkpoints (see
	// passivity.EnforceOptions.Checkpoint). Ignored for characterization
	// jobs.
	EnforceCheckpoint func(passivity.EnforceCheckpoint)
	// EnforceResume, when non-nil, restarts an enforcement job from its
	// last persisted iteration boundary (see
	// passivity.EnforceOptions.Resume). Ignored for characterization jobs.
	EnforceResume *passivity.EnforceCheckpoint
}

// Result is the outcome of a fleet job.
type Result struct {
	// Report is the passivity characterization — for enforcement jobs, the
	// final (or, on enforcement failure, last) characterization.
	Report *passivity.Report
	// Model is the enforced model, set for enforcement jobs only. On an
	// ErrEnforcementFailed error this is the partially-enforced model.
	Model *statespace.Model
	// EnforceReport summarizes the enforcement run (enforcement jobs only).
	EnforceReport *passivity.EnforceReport
}

// Job is a handle to one submitted request.
type Job struct {
	done   chan struct{}
	res    Result
	err    error
	client *core.Client
	wall   time.Duration // submit-to-finish latency, set before done closes
}

// Done returns a channel closed when the job has finished.
func (j *Job) Done() <-chan struct{} { return j.done }

// BusyTime returns the cumulative pool-worker time spent on this job's
// tasks — its actual compute cost. On a contended pool this is far below
// WallTime, which also counts time queued behind other jobs.
func (j *Job) BusyTime() time.Duration { return j.client.BusyTime() }

// WallTime returns the submit-to-finish latency of the job. Zero until
// the job finishes.
func (j *Job) WallTime() time.Duration {
	select {
	case <-j.done:
		return j.wall
	default:
		return 0
	}
}

// Wait blocks until the job finishes. On error the Result may still be
// partially populated (notably passivity.ErrEnforcementFailed, which
// carries the partially-enforced model and its report).
func (j *Job) Wait() (*Result, error) {
	<-j.done
	return &j.res, j.err
}

// Submit registers a request and returns a handle; the heavy solver work
// runs on the shared pool under the request's priority class and fairness
// weight, coordinated by one lightweight goroutine per job. The context
// cancels the job (shift-granular, like core.SolveContext).
//
// With MaxQueued set, Submit first takes an admission slot: it blocks
// until one frees, the context is canceled, or the engine closes
// (ErrEngineClosed — never a deadlock, see TestFleetCloseWhileSubmitBlocked);
// with FailFast it returns ErrQueueFull instead of blocking. The slot is
// released when the job finishes.
func (e *Engine) Submit(ctx context.Context, req Request) (*Job, error) {
	if req.Model == nil {
		return nil, errors.New("fleet: nil model")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	release := func() {}
	if e.sem != nil {
		if e.failFast {
			select {
			case <-e.closedCh:
				return nil, ErrEngineClosed
			default:
			}
			select {
			case e.sem <- struct{}{}:
			default:
				return nil, ErrQueueFull
			}
		} else {
			select {
			case e.sem <- struct{}{}:
			case <-e.closedCh:
				return nil, ErrEngineClosed
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		release = func() { <-e.sem }
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		release()
		return nil, ErrEngineClosed
	}
	e.wg.Add(1)
	e.mu.Unlock()

	// One scheduling identity spans every compute phase of the job.
	client := e.pool.NewClient(core.ClientOptions{Priority: req.Priority, Weight: req.Weight})
	j := &Job{done: make(chan struct{}), client: client}
	//lint:ignore detfloat job wall-time telemetry only; it never feeds numeric state
	start := time.Now()
	go func() {
		defer e.wg.Done()
		defer release()
		defer close(j.done)
		defer func() {
			//lint:ignore detfloat job wall-time telemetry only; it never feeds numeric state
			j.wall = time.Since(start)
		}()
		if req.Enforce != nil {
			opts := *req.Enforce
			opts.Char.Core.Pool = e.pool
			opts.Char.Core.Client = client
			if req.Progress != nil {
				opts.Char.Core.Progress = req.Progress
			}
			if req.EnforceCheckpoint != nil {
				opts.Checkpoint = req.EnforceCheckpoint
			}
			if req.EnforceResume != nil {
				opts.Resume = req.EnforceResume
			}
			// Enforcement durability is iteration-granular: the inner
			// re-characterizations must not emit (or consume) per-shift
			// checkpoints of their own.
			opts.Char.Core.Checkpoint = nil
			opts.Char.Core.Resume = nil
			model, rep, err := passivity.EnforceContext(ctx, req.Model, opts)
			j.res.Model = model
			j.res.EnforceReport = rep
			if rep != nil {
				j.res.Report = rep.FinalReport
			}
			j.err = err
			return
		}
		opts := req.Char
		opts.Core.Pool = e.pool
		opts.Core.Client = client
		if req.Progress != nil {
			opts.Core.Progress = req.Progress
		}
		if req.Checkpoint != nil {
			opts.Core.Checkpoint = req.Checkpoint
		}
		if req.Resume != nil {
			opts.Core.Resume = req.Resume
		}
		rep, err := passivity.CharacterizeContext(ctx, req.Model, opts)
		j.res.Report = rep
		j.err = err
	}()
	return j, nil
}

// Close waits for every submitted job to finish, then shuts the shared
// pool down. Submits blocked on admission are woken and fail with
// ErrEngineClosed. Jobs the caller wants aborted should be canceled via
// their contexts before Close. Closing twice is safe.
func (e *Engine) Close() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.closedCh)
	}
	e.mu.Unlock()
	e.wg.Wait()
	e.pool.Close()
}
