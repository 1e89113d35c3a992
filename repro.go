// Package repro is a Go reproduction of
//
//	L. Gobbato, A. Chinea, S. Grivet-Talocia, "A Parallel Hamiltonian
//	Eigensolver for Passivity Characterization and Enforcement of Large
//	Interconnect Macromodels", DATE 2011, pp. 26–31.
//
// It provides, on top of a from-scratch dense/sparse linear-algebra layer:
//
//   - structured state-space macromodels in the multiple-SIMO form of the
//     paper's Eq. 2 (package statespace, re-exported here), including a
//     Vector Fitting identifier for tabulated scattering data;
//   - the scattering Hamiltonian matrix (Eq. 5) with O(n)
//     Sherman–Morrison–Woodbury shift-invert applies (Eq. 6);
//   - the paper's contribution: a parallel multi-shift restarted/deflated
//     Arnoldi eigensolver with dynamic shift scheduling (Sec. IV) that
//     extracts all purely imaginary Hamiltonian eigenvalues;
//   - passivity characterization (violation bands) and iterative residue-
//     perturbation enforcement built on that eigensolver;
//   - a fleet engine (NewFleet / NewFleetEngine) that runs many concurrent
//     characterization and enforcement jobs on one shared worker pool —
//     every compute phase (shifts, band probes, constraint assembly) is a
//     pool task — with per-job priorities and fairness weights, bounded
//     admission, and per-job context cancellation.
//
// Quick start:
//
//	model, _ := repro.GenerateModel(1, repro.GenOptions{Ports: 4, Order: 200, TargetPeak: 1.05})
//	report, _ := repro.Characterize(model, repro.CharOptions{
//	    Core: repro.SolverOptions{Threads: 8},
//	})
//	if !report.Passive {
//	    passiveModel, _, _ := repro.Enforce(model, repro.EnforceOptions{})
//	    _ = passiveModel
//	}
package repro

import (
	"context"
	"io"

	"repro/internal/arnoldi"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/hamiltonian"
	"repro/internal/mat"
	"repro/internal/passivity"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/statespace"
	"repro/internal/touchstone"
	"repro/internal/vectfit"
)

// ---- macromodels (paper Sec. II) ----

// Model is a structured state-space macromodel H(s) = D + C(sI−A)⁻¹B in
// the multiple-SIMO block form of paper Eq. 2.
type Model = statespace.Model

// Block is one 1×1 or 2×2 real diagonal block of A.
type Block = statespace.Block

// Column is the SIMO realization of one column of H(s).
type Column = statespace.Column

// GenOptions controls synthetic macromodel generation.
type GenOptions = statespace.GenOptions

// CaseSpec describes one of the paper's twelve Table-I benchmark cases.
type CaseSpec = statespace.CaseSpec

// GenerateModel builds a synthetic stable macromodel with a calibrated
// peak singular value (TargetPeak > 1 yields passivity violations).
func GenerateModel(seed int64, opts GenOptions) (*Model, error) {
	return statespace.Generate(seed, opts)
}

// FromPoleResidue assembles a model from per-column pole–residue data.
func FromPoleResidue(d *Dense, poles [][]complex128, residues []*CDense) (*Model, error) {
	return statespace.FromPoleResidue(d, poles, residues)
}

// TableICases returns the twelve Table-I benchmark specifications.
func TableICases() []CaseSpec { return statespace.TableICases() }

// ReciprocalTableICases returns the reciprocal (symmetric-H) variants of
// the Table-I cases — the inputs on which the half-size Hamiltonian fast
// path engages.
func ReciprocalTableICases() []CaseSpec { return statespace.ReciprocalTableICases() }

// Backend names the kernel implementation that executes the structured-
// operator surface: packed-dense (the Table-I models) or CSR sparse
// (O(nnz) applies and SMW setup for large port-local models). The choice
// is made deterministically from the model structure; Report.Backend
// records it.
type Backend = statespace.Backend

// Backend values.
const (
	BackendPackedDense = statespace.BackendPackedDense
	BackendSparse      = statespace.BackendSparse
)

// BuildCase generates the synthetic macromodel for a Table-I case.
func BuildCase(spec CaseSpec) (*Model, error) { return statespace.BuildCase(spec) }

// FindCase returns the Table-I spec with the given ID (1–12).
func FindCase(id int) (CaseSpec, error) { return statespace.FindCase(id) }

// ---- linear algebra (exposed for advanced use and data interchange) ----

// Dense is a real row-major matrix.
type Dense = mat.Dense

// CDense is a complex row-major matrix.
type CDense = mat.CDense

// NewDense returns a zero rows×cols real matrix.
func NewDense(rows, cols int) *Dense { return mat.NewDense(rows, cols) }

// NewCDense returns a zero rows×cols complex matrix.
func NewCDense(rows, cols int) *CDense { return mat.NewCDense(rows, cols) }

// SingularValues returns the singular values of a complex matrix,
// descending.
func SingularValues(a *CDense) ([]float64, error) { return mat.SingularValues(a) }

// ---- Hamiltonian operators (paper Eqs. 5–6) ----

// Hamiltonian is the structured Hamiltonian operator M with O(n·p) applies
// and SMW shift-invert solves.
type Hamiltonian = hamiltonian.Op

// Representation selects the passivity test encoded by the Hamiltonian.
type Representation = hamiltonian.Representation

// Representation values.
const (
	Scattering = hamiltonian.Scattering
	Immittance = hamiltonian.Immittance
)

// NewHamiltonian builds the Hamiltonian operator of a model.
func NewHamiltonian(m *Model, rep Representation) (*Hamiltonian, error) {
	return hamiltonian.New(m, rep)
}

// ---- the parallel eigensolver (paper Secs. III–IV) ----

// SolverOptions configures the multi-shift eigensolver (threads T, κ, α,
// band, Arnoldi parameters).
type SolverOptions = core.Options

// SolverResult carries the crossing frequencies, per-shift records and
// work statistics.
type SolverResult = core.Result

// ArnoldiParams are the single-shift iteration parameters (n_ϑ, d, tol).
type ArnoldiParams = arnoldi.SingleShiftParams

// FindImagEigs runs the parallel multi-shift solver and returns all purely
// imaginary Hamiltonian eigenvalues of the model (scattering test).
func FindImagEigs(m *Model, opts SolverOptions) (*SolverResult, error) {
	return FindImagEigsRep(m, hamiltonian.Scattering, opts)
}

// FindImagEigsRep is FindImagEigs with an explicit representation: use
// Immittance for admittance/impedance models, where imaginary Hamiltonian
// eigenvalues mark the frequencies at which the Hermitian part of H(jω)
// becomes singular (paper Sec. II: "the same derivations can be performed
// for the impedance, admittance, and hybrid cases").
func FindImagEigsRep(m *Model, rep Representation, opts SolverOptions) (*SolverResult, error) {
	op, err := hamiltonian.New(m, rep)
	if err != nil {
		return nil, err
	}
	return core.Solve(op, opts)
}

// FindImagEigsSerial runs the serial bisection baseline of Sec. III.
func FindImagEigsSerial(m *Model, opts SolverOptions) (*SolverResult, error) {
	op, err := hamiltonian.New(m, hamiltonian.Scattering)
	if err != nil {
		return nil, err
	}
	return core.SolveSerialBisection(op, opts)
}

// FindImagEigsStaticGrid runs the statically pre-distributed shift grid the
// paper argues against in Sec. IV (kept as an ablation baseline).
func FindImagEigsStaticGrid(m *Model, opts SolverOptions) (*SolverResult, error) {
	op, err := hamiltonian.New(m, hamiltonian.Scattering)
	if err != nil {
		return nil, err
	}
	return core.SolveStaticGrid(op, opts)
}

// ---- passivity characterization and enforcement ----

// CharOptions configures characterization.
type CharOptions = passivity.Options

// Report is a full passivity characterization (crossings + bands).
type Report = passivity.Report

// Band is one frequency band with its σ_max classification.
type Band = passivity.Band

// EnforceOptions configures iterative passivity enforcement.
type EnforceOptions = passivity.EnforceOptions

// EnforceReport summarizes an enforcement run.
type EnforceReport = passivity.EnforceReport

// Characterize computes the passivity characterization of a model using
// the parallel Hamiltonian eigensolver.
func Characterize(m *Model, opts CharOptions) (*Report, error) {
	return passivity.Characterize(m, opts)
}

// CharacterizeContext is Characterize with cancellation/deadline support:
// on cancellation the eigensolver drops its remaining shifts and the error
// is ctx.Err().
func CharacterizeContext(ctx context.Context, m *Model, opts CharOptions) (*Report, error) {
	return passivity.CharacterizeContext(ctx, m, opts)
}

// Enforce perturbs the residues of a non-passive model until the
// Hamiltonian test reports passivity. The input model is not modified.
// When the iteration budget is exhausted with violations remaining, the
// partially-enforced model and its report are returned alongside an error
// wrapping ErrEnforcementFailed.
func Enforce(m *Model, opts EnforceOptions) (*Model, *EnforceReport, error) {
	return passivity.Enforce(m, opts)
}

// EnforceContext is Enforce with cancellation/deadline support.
func EnforceContext(ctx context.Context, m *Model, opts EnforceOptions) (*Model, *EnforceReport, error) {
	return passivity.EnforceContext(ctx, m, opts)
}

// ErrEnforcementFailed marks an enforcement run that exhausted its
// iteration budget; the partial model and report accompany it.
var ErrEnforcementFailed = passivity.ErrEnforcementFailed

// VerifyBySampling cross-checks a characterization against a σ_max sweep.
func VerifyBySampling(m *Model, rep *Report, points int) error {
	return passivity.VerifyBySampling(m, rep, points)
}

// ---- vector fitting (paper Sec. II, refs. [1]–[5]) ----

// VFSample is one tabulated frequency response H(jω).
type VFSample = vectfit.Sample

// VFOptions controls the Vector Fitting iteration. Threads parallelizes
// the independent per-column LS solves on a private worker pool; Client
// routes them through a shared pool (e.g. Fleet.NewClient) as PhaseFit
// task batches instead. Either way the fitted model is bit-identical to
// the sequential fit.
type VFOptions = vectfit.Options

// VFResult is a fitted model plus diagnostics.
type VFResult = vectfit.Result

// FitVector identifies a stable rational macromodel from tabulated
// samples by Vector Fitting (per-column SIMO, paper Eq. 2 structure).
func FitVector(samples []VFSample, order int, opts VFOptions) (*VFResult, error) {
	return vectfit.Fit(samples, order, opts)
}

// FitVectorContext is FitVector with cancellation/deadline support: a
// canceled context drops the fit's queued pool tasks and returns ctx.Err().
func FitVectorContext(ctx context.Context, samples []VFSample, order int, opts VFOptions) (*VFResult, error) {
	return vectfit.FitContext(ctx, samples, order, opts)
}

// SampleModel tabulates a model on a frequency grid (stand-in for field
// solver or VNA data in examples and tests).
func SampleModel(m *Model, omegas []float64) []VFSample {
	return vectfit.SampleModel(m, omegas)
}

// LogGrid returns n log-spaced frequencies in [lo, hi].
func LogGrid(lo, hi float64, n int) []float64 { return statespace.LogGrid(lo, hi, n) }

// ---- Touchstone interchange ----

// TouchstoneData is a parsed .snp file.
type TouchstoneData = touchstone.Data

// TouchstoneFormat selects RI/MA/DB column encoding.
type TouchstoneFormat = touchstone.Format

// Touchstone column encodings.
const (
	TouchstoneRI = touchstone.RI
	TouchstoneMA = touchstone.MA
	TouchstoneDB = touchstone.DB
)

// ParseTouchstone reads tabulated S-parameters from a Touchstone stream.
// It buffers every sample; for multi-GB sweeps use NewTouchstoneReader.
func ParseTouchstone(r io.Reader, ports int) (*TouchstoneData, error) {
	return touchstone.Parse(r, ports)
}

// WriteTouchstone emits samples as a Touchstone file (GHz, S-params).
func WriteTouchstone(w io.Writer, samples []VFSample, format TouchstoneFormat, reference float64) error {
	return touchstone.Write(w, samples, format, reference)
}

// TouchstoneReader streams a .snp file one sample at a time with O(ports²)
// working memory; every parse error carries line+byte offsets.
type TouchstoneReader = touchstone.Reader

// TouchstoneParseError is the positioned error type of the streaming
// Touchstone reader.
type TouchstoneParseError = touchstone.ParseError

// NewTouchstoneReader opens a streaming Touchstone parser (reads and
// validates the # option line before returning).
func NewTouchstoneReader(r io.Reader, ports int) (*TouchstoneReader, error) {
	return touchstone.NewReader(r, ports)
}

// VFFitter accumulates samples one at a time into a Vector Fitting system;
// Finish is equivalent to the batch FitVector on the same sequence. Feed
// it from a TouchstoneReader to overlap ingestion I/O with fitting:
//
//	rd, _ := repro.NewTouchstoneReader(f, ports)
//	ft := repro.NewVFFitter(order, repro.VFOptions{})
//	if err := rd.Each(ft.Add); err != nil { ... }
//	fit, err := ft.Finish()
type VFFitter = vectfit.Fitter

// NewVFFitter prepares an incremental Vector Fitting run.
func NewVFFitter(order int, opts VFOptions) *VFFitter {
	return vectfit.NewFitter(order, opts)
}

// CharacterizeTouchstone is the measured-data front door: it streams a
// Touchstone .snp file through parse → Vector Fitting → the Hamiltonian
// passivity characterization, at bounded ingestion memory. It returns the
// fit diagnostics alongside the passivity report (the fit is returned even
// when characterization fails, so callers can report RMS error).
//
// One worker pool spans the whole pipeline: the fit's per-column LS
// solves and the characterization's shifts/probes/refinements all run as
// tasks of one scheduling client. Standalone callers get a private pool
// sized by charOpts.Core.Threads (or vfOpts.Threads, whichever is
// larger); fleet callers share the engine's pool by setting
// vfOpts.Client / charOpts.Core.Client (e.g. from Fleet.NewClient).
func CharacterizeTouchstone(r io.Reader, ports, order int, vfOpts VFOptions, charOpts CharOptions) (*VFResult, *Report, error) {
	if vfOpts.Client == nil {
		if charOpts.Core.Client != nil {
			// The characterization already has a shared-pool identity: the
			// fit rides on it instead of spinning up a second pool.
			vfOpts.Client = charOpts.Core.Client
		} else if charOpts.Core.Pool == nil {
			threads := charOpts.Core.Threads
			if vfOpts.Threads > threads {
				threads = vfOpts.Threads
			}
			pool := core.NewPool(threads)
			defer pool.Close()
			client := pool.NewClient(core.ClientOptions{})
			vfOpts.Client = client
			charOpts.Core.Pool = pool
			charOpts.Core.Client = client
		} else {
			vfOpts.Client = charOpts.Core.Pool.NewClient(core.ClientOptions{})
		}
	}
	rd, err := touchstone.NewReader(r, ports)
	if err != nil {
		return nil, nil, err
	}
	ft := vectfit.NewFitter(order, vfOpts)
	if err := rd.Each(ft.Add); err != nil {
		return nil, nil, err
	}
	fit, err := ft.Finish()
	if err != nil {
		return nil, nil, err
	}
	rep, err := passivity.Characterize(fit.Model, charOpts)
	if err != nil {
		return fit, nil, err
	}
	return fit, rep, nil
}

// ---- the fleet engine (shared-pool multi-model jobs) ----

// Fleet runs many concurrent Characterize/Enforce jobs on one shared
// worker pool sized to the machine, instead of oversubscribing it with
// per-solve thread pools. Every compute phase — eigensolver shifts, band
// probes, constraint assembly — runs as pool tasks under the job's
// priority class and fairness weight. Submit returns a FleetJob handle;
// cancellation is per-job via contexts.
type Fleet = fleet.Engine

// FleetOptions configures a fleet engine: worker count, admission cap
// (MaxQueued bounds admitted-but-unfinished jobs; Submit blocks or, with
// FailFast, returns ErrFleetQueueFull).
type FleetOptions = fleet.EngineOptions

// FleetRequest describes one fleet job: a model plus either
// characterization options or (when Enforce is non-nil) enforcement
// options, a Priority class, and a fairness Weight.
type FleetRequest = fleet.Request

// FleetJob is the handle of a submitted fleet job.
type FleetJob = fleet.Job

// FleetResult is the outcome of a fleet job.
type FleetResult = fleet.Result

// PriorityClass selects a fleet job's scheduling tier on the shared pool.
type PriorityClass = core.PriorityClass

// Client is a scheduling identity on a shared worker pool: a priority
// class plus a weighted-round-robin fairness share. Every compute phase
// submitted under one client — eigensolver shifts, band probes,
// constraint assembly, Vector Fitting columns, refinement tails — obeys
// that one policy. Obtain one from Fleet.NewClient and pass it through
// VFOptions.Client or SolverOptions.Client.
type Client = core.Client

// Priority classes: interactive tasks pop before any queued batch task
// (preemption at task granularity; in-flight tasks finish first).
const (
	PriorityBatch       = core.PriorityBatch
	PriorityInteractive = core.PriorityInteractive
)

// PhaseStat aggregates pool-worker tasks and busy time for one compute
// phase (see Fleet.PhaseStats and cmd/fleetbench's utilization report).
type PhaseStat = core.PhaseStat

// ErrFleetQueueFull is returned by Submit on a FailFast fleet engine whose
// admission queue is at MaxQueued.
var ErrFleetQueueFull = fleet.ErrQueueFull

// NewFleet starts a fleet engine with the given shared-pool worker count
// (≤ 0 means GOMAXPROCS) and unbounded admission. Close it to release the
// workers.
func NewFleet(workers int) *Fleet { return fleet.New(workers) }

// NewFleetEngine starts a fleet engine with full production options
// (bounded admission, fail-fast submits).
func NewFleetEngine(opts FleetOptions) *Fleet { return fleet.NewEngine(opts) }

// ---- HTTP service layer (cmd/passivityd) ----

// ProgressEvent is one observational solver-progress notification,
// delivered through SolverOptions.Progress / FleetRequest.Progress as
// compute tasks complete: the certified disk (or probed band) location,
// near-axis eigenvalues as found, and a live done/total count per phase.
// Events are emitted after the scheduler commits each completion, so
// consuming them cannot perturb the bit-identical result.
type ProgressEvent = core.ProgressEvent

// Passivityd is the HTTP front door over a fleet engine: job submission
// (JSON model specs or Touchstone streams), SSE progress/crossing
// events, report retrieval, cancellation, and graceful drain. It
// implements http.Handler; cmd/passivityd wraps it in a daemon.
type Passivityd = server.Server

// PassivitydConfig wires a Passivityd to its engine.
type PassivitydConfig = server.Config

// JobSpec is the JSON body of a model-spec job submission to the
// service layer's POST /v1/jobs.
type JobSpec = server.JobSpec

// ReportDoc is the service layer's wire form of a Report; its
// deterministic sections round-trip through JSON bit-exactly.
type ReportDoc = server.ReportDoc

// NewPassivityd builds the service-layer handler set around an engine.
func NewPassivityd(cfg PassivitydConfig) *Passivityd { return server.New(cfg) }

// NewReportDoc converts an in-process report to its wire form.
func NewReportDoc(r *Report) *ReportDoc { return server.NewReportDoc(r) }

// ---- adaptive-sampling baseline (paper ref. [17]) ----

// SamplingOptions configures the adaptive-sweep characterization baseline.
type SamplingOptions = sampling.Options

// SamplingResult is the adaptive-sweep outcome.
type SamplingResult = sampling.Result

// CharacterizeBySampling runs the pre-Hamiltonian adaptive-sampling
// passivity test (ref. [17]). It is cheap and parallel but can only
// certify passivity up to its frequency resolution — the weakness the
// Hamiltonian eigensolver removes.
func CharacterizeBySampling(m *Model, opts SamplingOptions) (*SamplingResult, error) {
	return CharacterizeBySamplingContext(context.Background(), m, opts)
}

// CharacterizeBySamplingContext is CharacterizeBySampling with
// cancellation: ctx aborts the sweep between σ evaluations and drops any
// queued pool tasks of its bootstrap batch.
func CharacterizeBySamplingContext(ctx context.Context, m *Model, opts SamplingOptions) (*SamplingResult, error) {
	return sampling.CharacterizeContext(ctx, m, opts)
}
