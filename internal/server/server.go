// Package server is the HTTP front door over the fleet engine: submit a
// characterization or enforcement job as a JSON model spec or a streamed
// Touchstone .snp body, watch per-phase progress and crossings-as-found
// over SSE, fetch the finished report, cancel via DELETE, and drain
// gracefully on shutdown. cmd/passivityd wraps it in a daemon.
//
// The service layer is strictly observational with respect to the
// numerics: progress events are emitted after the scheduler has committed
// each task's completion, publishers never block on slow subscribers
// (Stream is an append-only log with replay), and reports served over
// HTTP are bit-identical to direct in-process runs of the same request
// (the e2e suite gob-compares them).
//
// Admission maps the engine's backpressure onto status codes: a full
// fail-fast queue answers 429, a draining or closed server answers 503.
// Job contexts descend from the server's base context, not the submit
// request's — a job outlives the POST that created it — and DELETE
// cancels through the same ctx threading the whole pipeline honors.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/store"
	"repro/internal/touchstone"
	"repro/internal/vectfit"
)

// Config wires a Server.
type Config struct {
	// Engine runs the jobs. Required; the caller owns its lifecycle
	// (the server never closes it).
	Engine *fleet.Engine
	// BaseContext is the parent of every job context; canceling it
	// cancels all jobs. Nil means context.Background().
	BaseContext context.Context
	// MaxBodyBytes caps request bodies. Default 32 MiB.
	MaxBodyBytes int64
	// FitOrder is the per-column Vector Fitting order for .snp
	// submissions. Default 20.
	FitOrder int
	// Store, when non-nil, is the durable job log: every submission,
	// solver checkpoint, stream event, and terminal report is persisted
	// (fsync'd) to it, and New replays it — terminal jobs come back
	// queryable, incomplete jobs are re-submitted seeded from their last
	// checkpoint and finish bit-identical to an uninterrupted run. The
	// caller owns the store's lifecycle (close it after DrainJobs).
	Store *store.Store
}

// Server is the HTTP handler set. Create with New; it implements
// http.Handler.
type Server struct {
	engine   *fleet.Engine
	base     context.Context
	maxBody  int64
	fitOrder int
	mux      *http.ServeMux
	reg      registry
	store    *store.Store
	recov    int // jobs replayed from the store at startup
	draining atomic.Bool
	jobs     sync.WaitGroup // one count per submitted job's watcher
}

// New builds the handler set around an engine.
func New(cfg Config) *Server {
	base := cfg.BaseContext
	if base == nil {
		base = context.Background()
	}
	s := &Server{
		engine:   cfg.Engine,
		base:     base,
		maxBody:  cfg.MaxBodyBytes,
		fitOrder: cfg.FitOrder,
		mux:      http.NewServeMux(),
		store:    cfg.Store,
	}
	if s.maxBody <= 0 {
		s.maxBody = 32 << 20
	}
	if s.fitOrder <= 0 {
		s.fitOrder = 20
	}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /status", s.handleStatus)
	if s.store != nil {
		s.recov = s.recoverJobs()
	}
	return s
}

// RecoveredJobs reports how many jobs New replayed from the durable store
// (terminal and resumed). Zero without a store.
func (s *Server) RecoveredJobs() int { return s.recov }

// ServeHTTP dispatches to the route table.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// BeginDrain flips the server into drain mode: /healthz goes 503 and new
// submissions are refused with 503 while everything in flight runs to
// completion. Idempotent.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
}

// DrainJobs blocks until every submitted job has reached a terminal
// state, or ctx expires. Call BeginDrain first so no new jobs arrive.
func (s *Server) DrainJobs(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.jobs.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain: %w", ctx.Err())
	}
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // client gone is the only failure; nothing to do
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorDoc{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit is POST /v1/jobs: a JSON JobSpec body, or a Touchstone
// .snp stream with ?ports= (and optional ?order=, ?priority=, ?weight=).
// ?validate=1 dry-runs the ingest (decode/parse + validate) and submits
// nothing. Backpressure: 429 when a fail-fast admission queue is full,
// 503 while draining or after engine close.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining: not accepting new jobs")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	if isSnpRequest(r) {
		s.submitSnp(w, r)
		return
	}
	spec, err := DecodeJobSpec(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if r.URL.Query().Get("validate") == "1" {
		writeJSON(w, http.StatusOK, map[string]any{"valid": true})
		return
	}
	model, err := spec.BuildModel()
	if err != nil {
		writeError(w, http.StatusBadRequest, "build model: %v", err)
		return
	}
	s.startJob(w, r, fleet.Request{
		Model:    model,
		Char:     spec.CharOptions(),
		Enforce:  spec.EnforceOptions(),
		Priority: spec.PriorityClass(),
		Weight:   spec.Weight,
	}, &persistedSpec{Priority: spec.Priority, Weight: spec.Weight, Char: spec.Char, Enforce: spec.Enforce})
}

// isSnpRequest detects a Touchstone submission by content type.
func isSnpRequest(r *http.Request) bool {
	switch r.Header.Get("Content-Type") {
	case "application/octet-stream", "text/vnd.touchstone":
		return true
	}
	return false
}

// submitSnp ingests a streamed .snp body: parse → Vector Fit on the
// engine's pool → submit the fitted model. Parse and fit errors are the
// client's fault (400); the fit runs under an interactive-class client so
// an ingest is never starved behind batch jobs.
func (s *Server) submitSnp(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	ports, err := strconv.Atoi(q.Get("ports"))
	if err != nil || ports < 1 || ports > maxSpecPorts {
		writeError(w, http.StatusBadRequest, "snp: want 1 ≤ ?ports= ≤ %d", maxSpecPorts)
		return
	}
	order := s.fitOrder
	if v := q.Get("order"); v != "" {
		order, err = strconv.Atoi(v)
		if err != nil || order < 1 || order > 100 {
			writeError(w, http.StatusBadRequest, "snp: want 1 ≤ ?order= ≤ 100")
			return
		}
	}
	var weight int
	if v := q.Get("weight"); v != "" {
		weight, err = strconv.Atoi(v)
		if err != nil || weight < 0 || weight > maxSpecWeight {
			writeError(w, http.StatusBadRequest, "snp: want 0 ≤ ?weight= ≤ %d", maxSpecWeight)
			return
		}
	}
	priority := core.PriorityBatch
	switch q.Get("priority") {
	case "", "batch":
	case "interactive":
		priority = core.PriorityInteractive
	default:
		writeError(w, http.StatusBadRequest, "snp: ?priority= must be batch or interactive")
		return
	}

	rd, err := touchstone.NewReader(r.Body, ports)
	if err != nil {
		writeError(w, http.StatusBadRequest, "snp: %v", err)
		return
	}
	if q.Get("validate") == "1" {
		// Dry run: stream the parse to completion (bounded by
		// MaxBytesReader) without fitting or submitting.
		if err := rd.Each(func(vectfit.Sample) error { return nil }); err != nil {
			writeError(w, http.StatusBadRequest, "snp: %v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"valid": true, "samples": rd.Samples()})
		return
	}
	client := s.engine.NewClient(core.PriorityInteractive, 1)
	ft := vectfit.NewFitter(order, vectfit.Options{Client: client})
	if err := rd.Each(ft.Add); err != nil {
		writeError(w, http.StatusBadRequest, "snp: %v", err)
		return
	}
	fit, err := ft.FinishContext(r.Context())
	if err != nil {
		writeError(w, http.StatusBadRequest, "snp fit: %v", err)
		return
	}
	// A .snp job is persisted spec-free: the fitted model snapshot carries
	// everything numeric, so recovery never re-runs the fit.
	pspec := &persistedSpec{Weight: weight}
	if priority == core.PriorityInteractive {
		pspec.Priority = "interactive"
	}
	s.startJob(w, r, fleet.Request{Model: fit.Model, Priority: priority, Weight: weight}, pspec)
}

// startJob submits the request to the engine, registers the job, and
// answers 202 with the job document. The job context descends from the
// server's base context; it is tied to the HTTP request's only for the
// duration of admission, so a client that disconnects while blocked on a
// full queue releases its slot, but the job survives the POST completing.
//
// With a store configured, the job's spec and model are persisted — and
// fsync'd — BEFORE submission: a 202 means the job survives any crash
// after it. A persist failure refuses the job (500) rather than running
// work that would silently vanish on restart.
func (s *Server) startJob(w http.ResponseWriter, r *http.Request, req fleet.Request, pspec *persistedSpec) {
	jctx, cancel := context.WithCancel(s.base)
	entry := s.reg.add(cancel, s.streamFor)
	req.Progress = func(ev core.ProgressEvent) { s.publishProgress(entry, ev) }
	if s.store != nil {
		specJSON, err := json.Marshal(pspec)
		if err == nil {
			err = s.store.AppendJobStart(entry.id, specJSON, req.Model)
		}
		if err != nil {
			cancel()
			entry.mu.Lock()
			entry.state = stateFailed
			entry.errMsg = "persist job: " + err.Error()
			entry.mu.Unlock()
			entry.stream.Close()
			writeError(w, http.StatusInternalServerError, "persist job: %v", err)
			return
		}
		s.attachCheckpointSinks(&req, entry.id)
	}

	stop := context.AfterFunc(r.Context(), cancel)
	job, err := s.engine.Submit(jctx, req)
	stop()
	if err != nil {
		cancel()
		entry.mu.Lock()
		entry.state = stateFailed
		entry.errMsg = err.Error()
		entry.mu.Unlock()
		entry.stream.Close()
		switch {
		case errors.Is(err, fleet.ErrQueueFull):
			writeError(w, http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, fleet.ErrEngineClosed):
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			writeError(w, http.StatusServiceUnavailable, "admission interrupted: %v", err)
		default:
			writeError(w, http.StatusBadRequest, "%v", err)
		}
		return
	}
	s.jobs.Add(1)
	go s.watch(entry, job, jctx, cancel)
	writeJSON(w, http.StatusAccepted, entry.doc(false))
}

// publishProgress fans one solver progress event out to the job's SSE
// stream: a "progress" event always, plus one "crossing" event per
// near-axis frequency not announced before. Runs on pool worker
// goroutines; everything it touches is lock-protected and it never
// blocks on subscribers.
func (s *Server) publishProgress(e *jobEntry, ev core.ProgressEvent) {
	data, err := json.Marshal(progressDoc{
		Phase:  ev.Phase,
		Omega:  ev.Omega,
		Radius: ev.Radius,
		Done:   ev.Done,
		Total:  ev.Total,
	})
	if err == nil {
		e.stream.Publish("progress", data)
	}
	for _, omega := range e.markCrossings(ev.NearAxis) {
		if data, err := json.Marshal(crossingDoc{Omega: omega, Tentative: true}); err == nil {
			e.stream.Publish("crossing", data)
		}
	}
}

// watch waits for the job and publishes the terminal event: "report"
// with the full job document on success (including enforcement failures
// that still carry a report), "canceled", or "error". A failure on a
// canceled job context classifies as canceled regardless of how deep in
// the pipeline the ctx error was (un)wrapped.
func (s *Server) watch(e *jobEntry, job *fleet.Job, jctx context.Context, cancel context.CancelFunc) {
	defer s.jobs.Done()
	defer cancel()
	res, err := job.Wait()
	e.mu.Lock()
	if res != nil && res.Report != nil {
		e.report = NewReportDoc(res.Report)
	}
	if res != nil && res.EnforceReport != nil {
		e.enforce = &EnforceDoc{
			Iterations:    res.EnforceReport.Iterations,
			InitialWorst:  res.EnforceReport.InitialWorst,
			FinalWorst:    res.EnforceReport.FinalWorst,
			ResidueChange: res.EnforceReport.ResidueChange,
		}
	}
	var typ string
	switch {
	case err == nil:
		e.state = stateDone
		typ = "report"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded), jctx.Err() != nil:
		e.state = stateCanceled
		e.errMsg = err.Error()
		typ = "canceled"
	default:
		e.state = stateFailed
		e.errMsg = err.Error()
		typ = "error"
	}
	e.mu.Unlock()
	data, merr := json.Marshal(e.doc(true))
	if merr != nil {
		data = []byte(`{"error":"encode terminal event"}`)
	}
	e.stream.PublishFinal(typ, data)
	if s.store != nil {
		e.mu.Lock()
		state := e.state
		e.mu.Unlock()
		// Written after the terminal event: if the crash lands between the
		// two, recovery synthesizes the terminal from the event instead.
		_ = s.store.AppendTerminal(e.id, store.TerminalRecord{State: state, Doc: data})
	}
}

// handleList is GET /v1/jobs.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.list()
	docs := make([]jobDoc, len(entries))
	for i, e := range entries {
		docs[i] = e.doc(false)
	}
	writeJSON(w, http.StatusOK, docs)
}

// handleGet is GET /v1/jobs/{id}: the job document, with the report once
// terminal.
func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, e.doc(true))
}

// handleCancel is DELETE /v1/jobs/{id}: cancel the job's context. The
// job reaches "canceled" asynchronously (cancellation granularity is one
// shift); canceling a terminal job is a no-op.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	e.cancel()
	writeJSON(w, http.StatusAccepted, e.doc(false))
}

// handleEvents is GET /v1/jobs/{id}/events: the job's SSE stream,
// replayed from the start (or from ?after=<seq>) and followed live until
// the terminal event. Event ids are the log sequence numbers, so a
// reconnecting client resumes with ?after= its last seen id.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	e, ok := s.reg.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	i := 0
	if v := r.URL.Query().Get("after"); v != "" {
		after, err := strconv.Atoi(v)
		if err != nil || after < -1 {
			writeError(w, http.StatusBadRequest, "want ?after= ≥ -1")
			return
		}
		i = after + 1
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	for {
		ev, ok, err := e.stream.Next(r.Context(), i)
		if err != nil || !ok {
			return // client gone, or complete log delivered
		}
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, ev.Data)
		flusher.Flush()
		i++
	}
}

// handleHealthz is GET /healthz: 200 "ok", or 503 "draining".
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleStatus is GET /status: engine-wide observability — pool width,
// queue depth, admission occupancy, per-phase execution counters, and
// every job's state.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	used, capacity := s.engine.Admission()
	doc := statusDoc{
		Draining:   s.draining.Load(),
		Workers:    s.engine.Workers(),
		QueueDepth: s.engine.QueueDepth(),
		Admission:  admissionDoc{Used: used, Capacity: capacity},
		Phases:     make(map[string]phaseDoc),
	}
	for ph, st := range s.engine.PhaseStats() {
		doc.Phases[ph] = phaseDoc{Tasks: st.Tasks, BusyNS: st.Busy.Nanoseconds()}
	}
	if s.store != nil {
		if err := s.store.Err(); err != nil {
			doc.StoreError = err.Error()
		}
	}
	for _, e := range s.reg.list() {
		doc.Jobs = append(doc.Jobs, e.doc(false))
	}
	writeJSON(w, http.StatusOK, doc)
}
