package server

import (
	"math"

	"repro/internal/passivity"
)

// ReportDoc is the wire form of a passivity characterization. The
// deterministic sections (Passive, Crossings, Bands, OmegaMax, Backend,
// HalfPath) round-trip through JSON bit-exactly — encoding/json emits
// shortest-round-trip float64 — so a report fetched over HTTP can be
// gob-compared against a direct in-process run. Solver is schedule-
// dependent telemetry (shift counts vary with worker timing) and is
// excluded from such comparisons.
type ReportDoc struct {
	Passive   bool      `json:"passive"`
	Crossings []float64 `json:"crossings"`
	Bands     []BandDoc `json:"bands"`
	OmegaMax  float64   `json:"omega_max"`
	Backend   string    `json:"backend"`
	HalfPath  bool      `json:"half_path"`
	Solver    SolverDoc `json:"solver"`
}

// BandDoc is one singular-value band. Hi is nil for the unbounded
// terminal band (JSON has no +Inf).
type BandDoc struct {
	Lo        float64  `json:"lo"`
	Hi        *float64 `json:"hi,omitempty"`
	PeakOmega float64  `json:"peak_omega"`
	PeakSigma float64  `json:"peak_sigma"`
	Violating bool     `json:"violating"`
}

// SolverDoc summarizes the solver work counters (schedule-dependent).
type SolverDoc struct {
	ShiftsProcessed  int   `json:"shifts_processed"`
	TentativeDeleted int   `json:"tentative_deleted"`
	Restarts         int   `json:"restarts"`
	OpApplies        int   `json:"op_applies"`
	ElapsedNS        int64 `json:"elapsed_ns"`
}

// EnforceDoc summarizes an enforcement run alongside its final report.
type EnforceDoc struct {
	Iterations    int     `json:"iterations"`
	InitialWorst  float64 `json:"initial_worst"`
	FinalWorst    float64 `json:"final_worst"`
	ResidueChange float64 `json:"residue_change"`
}

// NewReportDoc converts an in-process report to its wire form.
func NewReportDoc(r *passivity.Report) *ReportDoc {
	doc := &ReportDoc{
		Passive:   r.Passive,
		Crossings: append([]float64(nil), r.Crossings...),
		Bands:     make([]BandDoc, len(r.Bands)),
		OmegaMax:  r.OmegaMax,
		Backend:   r.Backend.String(),
		HalfPath:  r.HalfPath,
		Solver: SolverDoc{
			ShiftsProcessed:  r.Solver.ShiftsProcessed,
			TentativeDeleted: r.Solver.TentativeDeleted,
			Restarts:         r.Solver.Restarts,
			OpApplies:        r.Solver.OpApplies,
			ElapsedNS:        r.Solver.Elapsed.Nanoseconds(),
		},
	}
	for i, b := range r.Bands {
		bd := BandDoc{
			Lo:        b.Lo,
			PeakOmega: b.PeakOmega,
			PeakSigma: b.PeakSigma,
			Violating: b.Violating,
		}
		if !math.IsInf(b.Hi, 1) {
			hi := b.Hi
			bd.Hi = &hi
		}
		doc.Bands[i] = bd
	}
	return doc
}

// progressDoc is the SSE "progress" event payload (one per completed
// compute task of a watched phase).
type progressDoc struct {
	Phase  string  `json:"phase"`
	Omega  float64 `json:"omega"`
	Radius float64 `json:"radius,omitempty"`
	Done   int     `json:"done"`
	Total  int     `json:"total"`
}

// crossingDoc is the SSE "crossing" event payload: one tentative unit
// crossing, emitted as the solver certifies the disk containing it. The
// certified list arrives only with the terminal report.
type crossingDoc struct {
	Omega     float64 `json:"omega"`
	Tentative bool    `json:"tentative"`
}

// jobDoc is the GET /v1/jobs/{id} (and list/terminal-event) document.
type jobDoc struct {
	ID      string      `json:"id"`
	State   string      `json:"state"`
	Error   string      `json:"error,omitempty"`
	Report  *ReportDoc  `json:"report,omitempty"`
	Enforce *EnforceDoc `json:"enforce,omitempty"`
}

// statusDoc is the GET /status document.
type statusDoc struct {
	Draining   bool                `json:"draining"`
	Workers    int                 `json:"workers"`
	QueueDepth int                 `json:"queue_depth"`
	Admission  admissionDoc        `json:"admission"`
	Phases     map[string]phaseDoc `json:"phases"`
	Jobs       []jobDoc            `json:"jobs"`
	// StoreError surfaces a latched durable-store write failure: the
	// daemon keeps serving, but checkpoints are no longer being committed.
	StoreError string `json:"store_error,omitempty"`
}

type admissionDoc struct {
	Used     int `json:"used"`
	Capacity int `json:"capacity"` // 0 = unbounded
}

type phaseDoc struct {
	Tasks  int   `json:"tasks"`
	BusyNS int64 `json:"busy_ns"`
}

// errorDoc is every non-2xx JSON body.
type errorDoc struct {
	Error string `json:"error"`
}
