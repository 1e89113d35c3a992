package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/hamiltonian"
)

func errShiftBudget(max int) error {
	return fmt.Errorf("core: shift budget %d exhausted", max)
}

// Submit registers one multi-shift solve with the pool and returns a Job
// handle. The job's tentative intervals are queued as PhaseEig tasks under
// opts.Client (an ephemeral default-priority client when nil). The ω_max
// estimate (when Options.OmegaMax is zero) also runs as a PhaseEig pool
// task of that client — Submit blocks until it is scheduled, so a burst
// of submits is bounded by the pool width and obeys the client's
// priority. The context cancels or deadlines the job: remaining tentative
// intervals are dropped and Wait returns ctx.Err() once in-flight shifts
// drain (cancellation granularity is one shift; the post-completion
// refinement tail is not canceled — see Wait).
func (p *Pool) Submit(ctx context.Context, op *hamiltonian.Op, opts Options) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	client := opts.Client
	if client != nil && client.pool != p {
		return nil, errors.New("core: Options.Client is registered with a different pool")
	}
	if client == nil {
		client = p.NewClient(ClientOptions{})
	}
	if opts.Threads == 0 {
		// Jobs on a shared pool default their parallelism hint (initial
		// interval count N = κT, refinement concurrency) to the pool width.
		opts.Threads = p.workers
	}
	opts.setDefaults()
	// Factorization-cache wiring: attach (or, on request, detach) the
	// operator's shift cache before any shift work runs. EnsureShiftCache
	// keeps an already-attached cache — the fleet engine attaches one
	// shared cache across jobs, and a per-solve default must not displace
	// it.
	if opts.ShiftCacheSize < 0 {
		op.SetShiftCache(nil)
	} else {
		op.EnsureShiftCache(opts.ShiftCacheSize)
	}
	//lint:ignore detfloat elapsed-time telemetry only; it never feeds numeric state
	start := time.Now()

	omegaMax := opts.OmegaMax
	if opts.Resume != nil {
		// A resumed solve restarts from persisted scheduler state: the
		// ω_max the original run certified is restored verbatim (never
		// re-estimated — the restored interval set was derived from it).
		if err := opts.Resume.validate(opts.OmegaMin); err != nil {
			return nil, err
		}
		omegaMax = opts.Resume.OmegaMax
	} else if omegaMax == 0 {
		// The estimate is itself an Arnoldi sweep, so it runs as a pool
		// task under the job's client: a burst of N concurrent submits is
		// bounded by the pool width (and obeys the client's priority)
		// instead of oversubscribing the machine the pool is sized to.
		err := client.RunBatch(ctx, PhaseEig, []func(int) error{func(int) error {
			est, err := EstimateOmegaMax(op, opts.Seed)
			if err != nil {
				return err
			}
			omegaMax = est
			return nil
		}})
		if err != nil {
			return nil, err
		}
	}
	if omegaMax <= opts.OmegaMin {
		return nil, fmt.Errorf("core: empty band [%g, %g]", opts.OmegaMin, omegaMax)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	j := &Job{
		op:       op,
		opts:     opts,
		client:   client,
		omegaMax: omegaMax,
		start:    start,
		done:     make(chan struct{}),
	}
	var ivs []*interval
	if rs := opts.Resume; rs != nil {
		// Restore the scheduler state of the checkpoint prefix: counters,
		// committed shift outputs, and the tentative interval set with IDs
		// (and hence per-shift RNG seeds) preserved bit-exactly. The
		// resumed run then re-executes only the uncovered remainder.
		j.nextID = rs.NextID
		j.processed = rs.Completed
		j.completed = rs.Completed
		j.tentativeDeleted = rs.TentativeDeleted
		j.ckptSeq = rs.Seq + 1
		for i := range rs.Outs {
			j.outs = append(j.outs, rs.Outs[i].shiftOut())
		}
		ivs = restoreIntervals(rs.Tentative)
	} else {
		ivs = initialIntervals(opts.OmegaMin, omegaMax, opts.Kappa*opts.Threads)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if opts.Resume != nil {
		for _, iv := range ivs {
			j.pushRestoredLocked(p, iv)
		}
		// A crash after the final shift committed leaves nothing tentative:
		// the resumed job is complete the moment it is submitted.
		j.maybeFinishLocked()
	} else {
		for _, iv := range ivs {
			j.pushLocked(p, iv)
		}
	}
	var ck0 *Checkpoint
	if opts.Checkpoint != nil && opts.Resume == nil {
		// The submission snapshot (Seq 0): startup intervals and ω_max,
		// so a crash before the first shift commits still resumes without
		// re-running the estimation Arnoldi.
		ck0 = j.checkpointLocked(nil)
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	if ck0 != nil {
		opts.Checkpoint(*ck0)
	}

	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				p.mu.Lock()
				j.failLocked(p, ctx.Err())
				p.mu.Unlock()
			case <-j.done:
			}
		}()
	}
	return j, nil
}

// shiftOut is the raw per-shift output buffered until Wait assembles the
// Result.
type shiftOut struct {
	rec    ShiftRecord
	eigs   []complex128
	residM []float64
	rst    int
	apply  int
}

// Job is a handle to one multi-shift solve submitted to a Pool. It is one
// task producer among several: its tentative intervals enter the pool as
// PhaseEig tasks of its client, interleaved with whatever batch tasks the
// client's other phases queue.
type Job struct {
	op       *hamiltonian.Op
	opts     Options
	client   *Client
	omegaMax float64
	start    time.Time
	elapsed  time.Duration // solve duration, fixed when the job finishes
	done     chan struct{} // closed exactly once, when the job finishes

	// Scheduler bookkeeping, guarded by the owning Pool's mu.
	nextID           int
	pending          int         // tentative intervals of this job in the client queue
	inflight         int         // shifts of this job being processed right now
	running          []*interval // the in-flight shifts' intervals (checkpoint snapshots)
	processed        int
	completed        int // shifts whose completion update has committed
	tentativeDeleted int
	ckptSeq          int // next checkpoint sequence number to assign
	err              error
	finished         bool

	outMu sync.Mutex
	outs  []shiftOut
}

// Done returns a channel closed when the job has finished (successfully or
// not).
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job finishes and assembles the Result exactly as a
// standalone Solve would.
func (j *Job) Wait() (*Result, error) {
	<-j.done
	if j.err != nil {
		return nil, j.err
	}
	res := &Result{OmegaMax: j.omegaMax}
	j.outMu.Lock()
	for _, o := range j.outs {
		res.Shifts = append(res.Shifts, o.rec)
		res.Eigenvalues = append(res.Eigenvalues, o.eigs...)
		res.eigResiduals = append(res.eigResiduals, o.residM...)
		res.Stats.Restarts += o.rst
		res.Stats.OpApplies += o.apply
	}
	j.outMu.Unlock()
	res.Stats.ShiftsProcessed = j.processed
	res.Stats.TentativeDeleted = j.tentativeDeleted
	res.Stats.Elapsed = j.elapsed
	// The collect tail (eigenvalue refinements + canonical polish) runs as
	// PhaseRefine batches of this job's client, on the same pool the shifts
	// ran on. It deliberately ignores the submission context: a ctx
	// cancellation racing job completion must not discard a complete
	// Result (the same guarantee failLocked gives the scheduler side), and
	// the pre-pool goroutine tail was never cancelable either. The only
	// possible failure is a pool closed between job completion and Wait.
	if err := collect(j.client, res, j.op, j.opts.AxisTol); err != nil {
		return nil, err
	}
	return res, nil
}

// pushLocked queues a tentative interval of this job as a PhaseEig task of
// the job's client.
func (j *Job) pushLocked(p *Pool, iv *interval) {
	iv.id = j.nextID
	j.nextID++
	iv.job = j
	j.pending++
	p.enqueueLocked(&task{client: j.client, phase: PhaseEig, iv: iv, job: j})
}

// failLocked records the job's first error, purges its remaining tentative
// intervals from the client queue, and finishes the job if nothing is in
// flight. A job that already finished successfully is left untouched: the
// ctx watcher races job completion (its select can see ctx.Done() and
// j.done ready together), and failing a finished job would both discard a
// complete Result and mutate j.err after Wait may have read it.
func (j *Job) failLocked(p *Pool, err error) {
	if j.finished {
		return
	}
	if j.err == nil {
		j.err = err
	}
	c := j.client
	kept := c.queue[:0]
	for _, t := range c.queue {
		if t.job == j {
			j.pending--
			continue
		}
		kept = append(kept, t)
	}
	c.queue = kept
	j.maybeFinishLocked()
}

// maybeFinishLocked closes done once the job can make no further progress:
// nothing in flight and either failed or out of tentative intervals.
func (j *Job) maybeFinishLocked() {
	if j.finished || j.inflight > 0 {
		return
	}
	if j.err == nil && j.pending > 0 {
		return
	}
	j.finished = true
	//lint:ignore detfloat elapsed-time telemetry only; it never feeds numeric state
	j.elapsed = time.Since(j.start)
	close(j.done)
}

// runInterval processes the admitted interval of task t, started at start,
// on a worker goroutine. It books t (Pool.bookLocked) in the same critical
// section that commits the shift's outcome, before the job can finish.
func (j *Job) runInterval(p *Pool, worker int, t *task, start time.Time) {
	iv := t.iv
	rho0 := 0.5 * j.opts.Alpha * iv.width()
	if iv.edgeLeft || iv.edgeRite {
		// Edge shifts sit at the interval boundary; the disk must be able
		// to reach across the whole interval.
		rho0 = j.opts.Alpha * iv.width()
	}
	params := j.opts.Arnoldi
	params.Seed = j.opts.Seed*1_000_003 + int64(iv.id)*7919 + 1
	if j.client.pri < PriorityInteractive {
		// Mid-shift preemption point: a batch-class shift yields to queued
		// interactive-class tasks at every Arnoldi restart boundary, so an
		// interactive job's first pop waits one restart sweep instead of a
		// whole shift. Interactive shifts never yield (nothing outranks
		// them), which also bounds the inline recursion at depth one.
		params.Yield = func() { p.YieldInteractive(worker) }
	}
	sres, err := runShift(j.op, iv.shift, rho0, params)
	if err != nil {
		p.mu.Lock()
		p.bookLocked(t, start)
		j.inflight--
		j.removeRunningLocked(iv)
		j.failLocked(p, fmt.Errorf("core: shift ω=%g: %w", iv.shift, err))
		p.mu.Unlock()
		return
	}
	out := shiftOut{
		rec: ShiftRecord{
			Omega:  iv.shift,
			Radius: sres.Radius,
			NEigs:  len(sres.Eigenvalues),
			Worker: worker,
		},
		eigs:   sres.Eigenvalues,
		residM: sres.ResidualsM,
		rst:    sres.Restarts,
		apply:  sres.OpApplies,
	}
	j.outMu.Lock()
	j.outs = append(j.outs, out)
	j.outMu.Unlock()

	p.mu.Lock()
	p.bookLocked(t, start)
	committed := j.completed
	j.completeLocked(p, iv, iv.shift, sres.Radius)
	var ck *Checkpoint
	if j.opts.Checkpoint != nil && j.completed == committed+1 {
		// The completion update committed (not discarded by a failed job
		// or a closing pool): assign the checkpoint sequence number inside
		// the same critical section so the snapshot is consistent with
		// exactly the commits it claims; the callback runs after unlock.
		ck = j.checkpointLocked(newShiftCheckpoint(&out))
	}
	var done, total int
	if j.opts.Progress != nil {
		// Snapshot the counters inside the same critical section that
		// committed the completion update, so Done/Total are consistent;
		// the callback itself runs outside the pool mutex.
		done = j.processed - j.inflight
		total = j.processed + j.pending
	}
	p.mu.Unlock()
	if ck != nil {
		j.opts.Checkpoint(*ck)
	}
	if j.opts.Progress != nil {
		j.opts.Progress(ProgressEvent{
			Phase:    PhaseEig,
			Omega:    iv.shift,
			Radius:   sres.Radius,
			NearAxis: nearAxis(sres.Eigenvalues, j.omegaMax),
			Done:     done,
			Total:    total,
		})
	}
}

// nearAxis extracts the |Im λ| of eigenvalues passing the same coarse
// near-axis test collect uses for candidate selection — the "crossings as
// found" a progress consumer can surface before the refinement tail
// certifies the final list. Returns a fresh slice; the solver state is
// never aliased into an event.
func nearAxis(eigs []complex128, omegaMax float64) []float64 {
	scale := omegaMax
	if scale == 0 {
		scale = 1
	}
	var out []float64
	for _, v := range eigs {
		if hamiltonian.ClassifyImag(v, 1e-3, 1e-9*scale) {
			out = append(out, math.Abs(imag(v)))
		}
	}
	return out
}

// completeLocked applies the paper's completion update (Sec. IV-D) for a
// finished disk [c−ρ, c+ρ] that was responsible for the interval [lo, hi]:
//
//   - the disk is subtracted from the owning interval; uncovered remainders
//     become new tentative intervals with midpoint shifts (Eqs. 25–27);
//   - the disk is also subtracted from every *tentative* interval of the
//     same job: fully swallowed intervals are deleted (the paper's Eq. 24
//     shift deletion — the source of superlinear speedups), partially
//     covered ones are trimmed and re-centered. Trimming rather than
//     deleting guarantees that no part of the band silently loses coverage.
//
// Tasks of other jobs — including batch tasks sharing the same client —
// are untouched.
func (j *Job) completeLocked(p *Pool, own *interval, center, radius float64) {
	j.inflight--
	j.removeRunningLocked(own)
	if j.err != nil {
		j.maybeFinishLocked()
		return
	}
	dLo, dHi := center-radius, center+radius
	rems := subtract(own.lo, own.hi, dLo, dHi)
	if p.closed {
		// The pool is shutting down: remainders would never run.
		if len(rems) > 0 {
			j.failLocked(p, ErrPoolClosed)
		} else {
			j.maybeFinishLocked()
		}
		return
	}
	j.completed++
	// Subtract from this job's tentative intervals.
	c := j.client
	kept := c.queue[:0]
	var spawned []*interval
	for _, t := range c.queue {
		if t.job != j {
			kept = append(kept, t)
			continue
		}
		iv := t.iv
		ivRems := subtract(iv.lo, iv.hi, dLo, dHi)
		switch {
		case len(ivRems) == 1 && ivRems[0][0] == iv.lo && ivRems[0][1] == iv.hi:
			kept = append(kept, t) // untouched
		case len(ivRems) == 0:
			j.tentativeDeleted++ // fully swallowed: delete (Eq. 24)
			j.pending--
		default:
			j.tentativeDeleted++
			j.pending--
			for _, rem := range ivRems {
				nv := &interval{lo: rem[0], hi: rem[1], shift: 0.5 * (rem[0] + rem[1])}
				// Preserve band-edge pinning when the edge survives.
				if iv.edgeLeft && rem[0] == iv.lo {
					nv.edgeLeft = true
					nv.shift = rem[0]
				}
				if iv.edgeRite && rem[1] == iv.hi {
					nv.edgeRite = true
					nv.shift = rem[1]
				}
				spawned = append(spawned, nv)
			}
		}
	}
	c.queue = kept
	// Remainders of the owning interval, then trimmed children.
	for _, rem := range rems {
		j.pushLocked(p, &interval{lo: rem[0], hi: rem[1], shift: 0.5 * (rem[0] + rem[1])})
	}
	for _, nv := range spawned {
		j.pushLocked(p, nv)
	}
	j.maybeFinishLocked()
	p.cond.Broadcast()
}
