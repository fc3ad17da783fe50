// Package serve turns the Best-of-Three engine into a long-running
// HTTP/JSON simulation service. Clients submit jobs (a graph spec, an
// imbalance δ, a Best-of-k rule, and a trial count), the Manager executes
// them on a bounded worker pool through repro.Runner — the Runner the
// library, the CLIs and the experiment suite use, so a job's outcomes are
// byte-identical to the same spec run anywhere else — and an LRU graph
// pool keyed by the canonical graph spec lets repeated sweeps over one
// topology skip the generator path.
//
// Parameter grids are first-class: a sweep request expands a grid
// (topologies × n × δ × k × tie × noise × trials) into child runs scheduled on the
// same pool under one sweep ID, with aggregate progress and an NDJSON
// stream of per-cell results.
//
// Endpoints (full wire reference in docs/API.md):
//
//	POST   /v1/runs                 submit a job (202 + JobView)
//	GET    /v1/runs                 list recent jobs, newest first
//	GET    /v1/runs/{id}            poll one job
//	DELETE /v1/runs/{id}            cancel a queued or running job
//	POST   /v1/sweeps               expand a grid into child runs (202 + SweepView)
//	GET    /v1/sweeps               list recent sweeps, newest first
//	GET    /v1/sweeps/{id}          poll one sweep (per-cell status + aggregate)
//	GET    /v1/sweeps/{id}/results  stream completed cells as NDJSON
//	DELETE /v1/sweeps/{id}          cancel a sweep and its children
//	GET    /v1/runs/{id}/events     live run telemetry (SSE or NDJSON)
//	GET    /v1/sweeps/{id}/events   live sweep telemetry (SSE or NDJSON)
//	GET    /v1/events               server-wide metrics frames (SSE or NDJSON)
//	GET    /v1/results              list stored results (family/n filters, pagination)
//	GET    /v1/results/{key}        fetch one stored result by content key
//	GET    /v1/stats                job, sweep, trial, graph-pool, and store counters
//	GET    /metrics                 Prometheus text exposition of the same counters
//	GET    /healthz                 liveness + build identity
//
// The /events endpoints stream from the bounded-backpressure event bus
// (internal/bus): lifecycle transitions, round-decimated trajectory
// frames, and per-cell sweep results, with snapshot-then-tail semantics,
// Last-Event-ID resume, and drop-oldest overflow for slow readers — a
// stalled watcher never slows the simulation.
//
// Determinism: a job with seed s runs trial i from rng.ChildSeed(s, i),
// and a sweep with seed s runs cell i with job seed rng.ChildSeed(s, i);
// requests that omit the seed get one derived from the server's root seed,
// recorded in the result. Replaying a request with the recorded seed
// reproduces the result bit-for-bit.
//
// That determinism contract is what the persistent result store
// (internal/store, enabled by bo3serve -store-dir) exploits: completed
// jobs are recorded under their spec's content key, a resubmitted
// identical spec is answered from disk without executing (jobs_cached in
// /v1/stats), sweeps journal their lifecycle so Manager.ResumeSweeps
// finishes interrupted grids after a restart, and GET /v1/results exposes
// the recorded history for offline audit (cmd/bo3store).
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/buildinfo"
)

// Server is the http.Handler for the bo3serve API.
type Server struct {
	mgr *Manager
	mux *http.ServeMux
}

// NewServer wires the routes around the manager.
func NewServer(mgr *Manager) *Server {
	s := &Server{mgr: mgr, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/runs", s.handleList)
	s.mux.HandleFunc("GET /v1/runs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/runs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	s.mux.HandleFunc("GET /v1/sweeps", s.handleSweepList)
	s.mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepGet)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/results", s.handleSweepResults)
	s.mux.HandleFunc("DELETE /v1/sweeps/{id}", s.handleSweepCancel)
	s.mux.HandleFunc("GET /v1/runs/{id}/events", s.handleRunEvents)
	s.mux.HandleFunc("GET /v1/sweeps/{id}/events", s.handleSweepEvents)
	s.mux.HandleFunc("GET /v1/events", s.handleMetricsEvents)
	s.mux.HandleFunc("GET /v1/results", s.handleResultList)
	s.mux.HandleFunc("GET /v1/results/{key}", s.handleResultGet)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s
}

// ServeHTTP implements http.Handler. Every request passes through the
// metrics middleware: latency observed per route pattern (so /v1/runs/{id}
// stays one series regardless of ID), requests counted per route × status
// class. The pattern must come from the mux — the request the outer
// handler sees is not the copy ServeMux annotates for the inner one.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	_, route := s.mux.Handler(r)
	if route == "" {
		route = "unmatched"
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	s.mux.ServeHTTP(sw, r)
	mx := s.mgr.mx
	mx.httpRequests.With(route, statusClass(sw.code)).Inc()
	mx.httpSeconds.With(route).ObserveSince(start)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	view, err := s.mgr.Submit(req)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, view)
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.List(0))
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	view, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("serve: no such run"))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	view, ok := s.mgr.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("serve: no such run"))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	view, err := s.mgr.SubmitSweep(req)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, view)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	default:
		writeError(w, http.StatusBadRequest, err)
	}
}

func (s *Server) handleSweepList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.ListSweeps(0))
}

func (s *Server) handleSweepGet(w http.ResponseWriter, r *http.Request) {
	view, ok := s.mgr.GetSweep(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("serve: no such sweep"))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleSweepCancel(w http.ResponseWriter, r *http.Request) {
	view, ok := s.mgr.CancelSweep(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("serve: no such sweep"))
		return
	}
	writeJSON(w, http.StatusOK, view)
}

// handleSweepResults streams the sweep's cells as NDJSON, one SweepEvent
// per line in completion order, ending with a sweep event carrying the
// final aggregate. It is a thin adapter over the event bus: a type-filtered
// subscription (cell and sweep events only, ring sized to the cell count)
// replays the retained history and tails the live stream through the same
// loop as /events, so late-subscriber replay is one mechanism. The stream
// ends when the sweep is terminal or the client goes away.
func (s *Server) handleSweepResults(w http.ResponseWriter, r *http.Request) {
	snapshot, sub, ok := s.mgr.SubscribeSweepResults(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("serve: no such sweep"))
		return
	}
	s.streamEvents(w, r, snapshot, sub, sweepResultLines)
}

// handleResultList pages through the persistent result store, newest
// first, with optional exact-match filters. A storeless server answers
// with an empty listing rather than an error: the endpoint's shape does
// not depend on deployment flags.
func (s *Server) handleResultList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var filter ResultFilter
	filter.Family = q.Get("family")
	var offset, limit int
	for name, dst := range map[string]*int{"n": &filter.N, "offset": &offset, "limit": &limit} {
		if raw := q.Get(name); raw != "" {
			v, err := strconv.Atoi(raw)
			if err != nil || v < 0 {
				writeError(w, http.StatusBadRequest, fmt.Errorf("serve: query parameter %s=%q is not a non-negative integer", name, raw))
				return
			}
			*dst = v
		}
	}
	list, err := s.mgr.ListResults(filter, offset, limit)
	if errors.Is(err, ErrNoStore) {
		list = ResultList{Results: []ResultMeta{}}
	} else if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, list)
}

func (s *Server) handleResultGet(w http.ResponseWriter, r *http.Request) {
	view, ok, err := s.mgr.GetResult(r.PathValue("key"))
	switch {
	case errors.Is(err, ErrNoStore) || (err == nil && !ok):
		writeError(w, http.StatusNotFound, errors.New("serve: no such stored result"))
	case err != nil:
		writeError(w, http.StatusInternalServerError, err)
	default:
		writeJSON(w, http.StatusOK, view)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.mgr.Stats())
}

// handleMetrics serves the Prometheus text exposition of the manager's
// registry — the same instruments /v1/stats reads.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mgr.Registry().Handler().ServeHTTP(w, r)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	bi := buildinfo.Get()
	writeJSON(w, http.StatusOK, map[string]string{
		"status":     "ok",
		"version":    bi.Version,
		"commit":     bi.Commit,
		"go_version": bi.GoVersion,
	})
}
