// Package core implements the paper's primary contribution: a parallel
// multi-shift restarted Arnoldi scheme that extracts all purely imaginary
// Hamiltonian eigenvalues of a large interconnect macromodel (DATE'11,
// Sec. IV). Individual single-shift iterations S(ϑ, ρ₀) run concurrently on
// worker goroutines; a dynamic scheduler keeps their work disjoint and
// guarantees that the union of the returned convergence disks covers the
// whole search band [ω_min, ω_max].
//
// Two baselines are provided for the paper's comparisons: a serial
// bisection solver (Sec. III / ref. [9]) and a statically pre-distributed
// shift grid whose poor parallel efficiency motivates the dynamic scheme.
//
// The package also owns the system-wide scheduler: Pool is a phase-
// agnostic priority task executor, and every heavy compute phase of the
// whole pipeline — eigensolver shifts, ω_max estimates, band probes,
// enforcement constraints, sampling sweeps, Vector Fitting columns, and
// the eigenvalue-refinement/arbitration tails — runs as its tasks (phase
// labels PhaseEig … PhaseRefine). Coordinator goroutines do control flow
// and cheap glue only; no heavy compute runs on free goroutines.
//
// Invariants: per job, the queued tentative intervals are pairwise
// disjoint and their union is exactly the uncovered part of the band; the
// scheduler only decides WHEN a task runs, never with what data, so
// solves and batches are bit-identical under any worker count; reported
// crossings are additionally schedule-independent via the canonical
// polish in collect.
//
// Concurrency: Pool/Client/Job methods are safe for concurrent use (all
// scheduler state is guarded by the pool mutex). Client.RunBatch and
// Job.Wait block and must not be called from a pool worker goroutine —
// coordinator goroutines only — or a fully-busy pool could deadlock on
// the join.
package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/arnoldi"
)

// Options configures the multi-shift eigensolver.
type Options struct {
	// Threads is the number T of concurrent single-shift workers.
	// Default 1.
	Threads int
	// Kappa is κ: the initial interval count is N = κ·T, κ ≥ 2 (paper
	// Sec. IV-A). Default 2.
	Kappa int
	// Alpha is the initial-radius overlap factor α ≳ 1 of paper Eq. 23.
	// Default 1.05.
	Alpha float64
	// OmegaMin is the lower bound of the search band (paper: usually 0).
	OmegaMin float64
	// OmegaMax is the upper bound. Zero means "estimate automatically" as
	// the magnitude of the largest Hamiltonian eigenvalue (Sec. IV-A).
	OmegaMax float64
	// Arnoldi carries the single-shift iteration parameters (n_ϑ, d, tol).
	Arnoldi arnoldi.SingleShiftParams
	// AxisTol is the relative tolerance (vs. ω_max) for accepting an
	// eigenvalue as purely imaginary. Default 1e-6.
	AxisTol float64
	// Seed drives all random start vectors. Runs with the same seed and
	// Threads=1 are fully deterministic.
	Seed int64
	// MaxShifts caps the total number of processed shifts as a safety
	// valve. Default 10000.
	MaxShifts int
	// Pool optionally points at a shared worker pool: the solve then runs
	// as one job among many on that pool's workers and Threads only sets
	// the startup interval count N = κT (defaulting to the pool width).
	// When nil, Solve creates a private pool with Threads workers — the
	// standalone semantics of the paper. Ignored by the serial-bisection
	// and static-grid baselines.
	Pool *Pool
	// Client optionally names the pool scheduling identity (priority
	// class + weighted-round-robin share) the solve's shift tasks are
	// charged to. A fleet job passes one client through all of its compute
	// phases so priority and fairness apply to the whole job; when nil, an
	// ephemeral default-priority client is created per solve. Requires the
	// client to be registered with the pool the job runs on; with Pool nil
	// the client's own pool is used. Ignored by the serial-bisection and
	// static-grid baselines.
	Client *Client
	// Progress, when non-nil, receives observational progress events as
	// the solve's compute tasks complete (one per certified eigensolver
	// disk; other phases may emit their own — see ProgressEvent). The
	// callback runs on pool worker goroutines, possibly concurrently, so
	// it must be safe for concurrent use and fast: a slow callback delays
	// the emitting worker, never correctness. Events carry copies of
	// solver state and are emitted after the scheduler has committed the
	// completion update, so consuming them cannot influence shift
	// placement, scheduling, or the bit-identity of the reported result.
	// Ignored by the serial-bisection and static-grid baselines.
	Progress func(ProgressEvent)
	// Checkpoint, when non-nil, receives one durable-resume snapshot per
	// committed scheduler transition: Seq 0 when the startup intervals are
	// queued, then one per completed shift (see Checkpoint). Sequence
	// numbers are assigned inside the pool critical section that commits
	// the transition, but the callback itself runs on worker goroutines
	// outside the lock — possibly concurrently and out of sequence order —
	// so durable consumers must resume only from a contiguous sequence
	// prefix. Like Progress, the callback is observational: it carries
	// copies of solver state and can never perturb shift placement or the
	// bit-identity of the result. Ignored by the serial-bisection and
	// static-grid baselines.
	Checkpoint func(Checkpoint)
	// Resume, when non-nil, seeds the solve from a persisted checkpoint
	// prefix instead of the startup κT subdivision: the ω_max estimate is
	// skipped, the tentative interval set (IDs and float bits preserved)
	// replaces the startup intervals, and the committed shifts of the
	// prefix are preloaded into the Result. A resumed run is one more
	// admissible schedule of the same solve, so its reported crossings are
	// bit-identical to an uninterrupted run's while re-executing only the
	// shifts the prefix had not committed. Checkpoint emission (if also
	// set) continues at Resume.Seq+1. OmegaMax is ignored when resuming.
	Resume *ResumeState
}

// ProgressEvent is one observational solver-progress notification (see
// Options.Progress). Event delivery order across workers is
// timing-dependent; the data inside each event is not.
type ProgressEvent struct {
	// Phase is the compute phase that made progress (PhaseEig for a
	// completed single-shift disk, PhaseProbe for a classified band, ...).
	Phase string
	// Omega is the event's frequency: the shift location of a completed
	// disk (PhaseEig) or the probed band's peak (PhaseProbe).
	Omega float64
	// Radius is the certified disk radius (PhaseEig only).
	Radius float64
	// NearAxis are the |Im λ| of eigenvalues certified inside the disk
	// that pass the coarse near-axis candidate test — crossings as the
	// solver finds them. They are TENTATIVE: refinement and arbitration
	// in the collect tail decide the certified list, which only the final
	// Result carries.
	NearAxis []float64
	// Done and Total count the phase's completed tasks against the
	// currently-known task count. For PhaseEig, Total grows as completed
	// disks spawn remainder intervals and shrinks when disks swallow
	// tentative shifts, so Done/Total is a live lower-bound estimate, not
	// a monotone fraction.
	Done, Total int
}

// validate rejects option values that would silently corrupt a solve: a
// negative Threads used to spawn zero workers and return an empty Result
// that downstream code read as "no crossings, model passive", and a NaN
// band edge would slip past every range check into the interval setup.
func (o *Options) validate() error {
	switch {
	case o.Threads < 0:
		return fmt.Errorf("core: Threads must be ≥ 0, got %d", o.Threads)
	case o.Kappa < 0:
		return fmt.Errorf("core: Kappa must be ≥ 0, got %d", o.Kappa)
	case !(o.Alpha >= 0) || math.IsInf(o.Alpha, 1):
		return fmt.Errorf("core: Alpha must be finite and ≥ 0, got %g", o.Alpha)
	case !(o.AxisTol >= 0) || math.IsInf(o.AxisTol, 1):
		return fmt.Errorf("core: AxisTol must be finite and ≥ 0, got %g", o.AxisTol)
	case o.MaxShifts < 0:
		return fmt.Errorf("core: MaxShifts must be ≥ 0, got %d", o.MaxShifts)
	case !(o.OmegaMin >= 0) || math.IsInf(o.OmegaMin, 1):
		return fmt.Errorf("core: OmegaMin must be finite and ≥ 0, got %g", o.OmegaMin)
	case !(o.OmegaMax >= 0) || math.IsInf(o.OmegaMax, 1):
		return fmt.Errorf("core: OmegaMax must be finite and ≥ 0, got %g", o.OmegaMax)
	}
	return o.Arnoldi.Validate()
}

func (o *Options) setDefaults() {
	if o.Threads == 0 {
		o.Threads = 1
	}
	if o.Kappa < 2 {
		o.Kappa = 2
	}
	if o.Alpha == 0 {
		o.Alpha = 1.05
	}
	if o.AxisTol == 0 {
		o.AxisTol = 1e-6
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.MaxShifts == 0 {
		o.MaxShifts = 10000
	}
}

// ShiftRecord documents one completed single-shift iteration.
type ShiftRecord struct {
	Omega  float64 // shift location on the imaginary axis
	Radius float64 // certified disk radius
	NEigs  int     // eigenvalues returned inside the disk
	Worker int     // worker goroutine that ran it
}

// Stats aggregates solver work counters.
type Stats struct {
	ShiftsProcessed int
	// TentativeDeleted counts tentative shifts swallowed by completed
	// disks before being processed — the source of the superlinear
	// speedups reported in the paper (Sec. V).
	TentativeDeleted int
	Restarts         int
	OpApplies        int
	Elapsed          time.Duration
}

// Add accumulates another solve's counters into s (used by enforcement to
// total the work across re-characterizations).
func (s *Stats) Add(o Stats) {
	s.ShiftsProcessed += o.ShiftsProcessed
	s.TentativeDeleted += o.TentativeDeleted
	s.Restarts += o.Restarts
	s.OpApplies += o.OpApplies
	s.Elapsed += o.Elapsed
}

// Result is the outcome of a multi-shift solve.
type Result struct {
	// Crossings are the frequencies ω ≥ 0 of all purely imaginary
	// Hamiltonian eigenvalues (singular-value unit crossings), sorted
	// ascending and deduplicated.
	Crossings []float64
	// Eigenvalues are all Hamiltonian eigenvalues certified inside the
	// processed disks (including non-imaginary ones near the axis).
	Eigenvalues []complex128
	// OmegaMax is the actual search bound used.
	OmegaMax float64
	Shifts   []ShiftRecord
	Stats    Stats

	// eigResiduals are per-eigenvalue residuals in M, aligned with
	// Eigenvalues before deduplication (consumed by collect).
	eigResiduals []float64
}

// Nlambda returns the number of imaginary-eigenvalue crossings (the paper's
// Nλ, counting ±jω once).
func (r *Result) Nlambda() int { return len(r.Crossings) }
