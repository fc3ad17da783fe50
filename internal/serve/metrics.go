package serve

import (
	"context"
	"net/http"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/metrics"
	"repro/internal/store"
)

// This file is the serve layer's metrics surface: the instrument bundle
// every subsystem counter lives in, the func-backed metrics that read
// manager state at scrape time, and the HTTP middleware behind the
// per-route request histograms. GET /v1/stats is a read-through view
// over the same instruments (see Manager.Stats), so the JSON counters
// and the /metrics exposition can never disagree.

// serveMetrics bundles the serve layer's pushed instruments. Everything
// here is updated at the same sites that used to bump the Manager's
// private int64 counters; Stats() reads the instruments back.
type serveMetrics struct {
	// HTTP surface.
	httpRequests *metrics.CounterVec   // {route, code-class}
	httpSeconds  *metrics.HistogramVec // {route}

	// Job lifecycle.
	jobsCompleted *metrics.Counter
	jobsFailed    *metrics.Counter
	jobsCancelled *metrics.Counter
	jobsRejected  *metrics.Counter
	jobsCached    *metrics.Counter
	jobsEngine    *metrics.CounterVec // {engine}
	jobsVariant   *metrics.CounterVec // {variant}
	trialsRun     *metrics.Counter
	roundsRun     *metrics.Counter
	storeErrors   *metrics.Counter
	workers       *metrics.Gauge

	// Per-stage job latencies, split where the stage identity matters.
	queueWaitSeconds *metrics.HistogramVec // {engine, variant}
	execSeconds      *metrics.HistogramVec // {engine, variant}
	graphSeconds     *metrics.Histogram    // graph-pool fetch, incl. coalesce waits
	persistSeconds   *metrics.Histogram    // store write of the finished result

	// Sweep lifecycle.
	sweepsCompleted    *metrics.Counter
	sweepsCancelled    *metrics.Counter
	sweepsRejected     *metrics.Counter
	sweepCellsFinished *metrics.Counter
	cellsCached        *metrics.Counter
}

func newServeMetrics(reg *metrics.Registry) *serveMetrics {
	bi := buildinfo.Get()
	reg.GaugeVec("bo3_build_info", "Build identity; value is always 1, the labels carry the information.",
		"version", "commit", "go_version").With(bi.Version, bi.Commit, bi.GoVersion).Set(1)
	m := &serveMetrics{
		httpRequests: reg.CounterVec("bo3_http_requests_total", "HTTP requests served, by route pattern and status class.", "route", "code"),
		httpSeconds:  reg.HistogramVec("bo3_http_request_seconds", "HTTP request latency by route pattern.", metrics.DefBuckets, "route"),

		jobsCompleted: reg.Counter("bo3_jobs_completed_total", "Jobs that reached state done (store-cached answers included)."),
		jobsFailed:    reg.Counter("bo3_jobs_failed_total", "Jobs that reached state failed."),
		jobsCancelled: reg.Counter("bo3_jobs_cancelled_total", "Jobs cancelled while queued or running."),
		jobsRejected:  reg.Counter("bo3_jobs_rejected_total", "Submissions rejected at admission (validation or full queue)."),
		jobsCached:    reg.Counter("bo3_jobs_cached_total", "Jobs answered from the persistent result store without executing."),
		jobsEngine:    reg.CounterVec("bo3_jobs_engine_total", "Executed jobs by round engine.", "engine"),
		jobsVariant:   reg.CounterVec("bo3_jobs_variant_total", "Executed jobs by opinion-dynamic variant.", "variant"),
		trialsRun:     reg.Counter("bo3_trials_total", "Protocol trials executed."),
		roundsRun:     reg.Counter("bo3_rounds_total", "Protocol rounds executed."),
		storeErrors:   reg.Counter("bo3_store_errors_total", "Failed result-store writes observed by the serve layer (the affected jobs still completed)."),
		workers:       reg.Gauge("bo3_workers", "Job worker-pool width."),

		queueWaitSeconds: reg.HistogramVec("bo3_job_queue_wait_seconds", "Time between job admission and execution start, by engine and variant.", metrics.DefBuckets, "engine", "variant"),
		execSeconds:      reg.HistogramVec("bo3_job_exec_seconds", "Job execution time (engine stage only), by engine and variant.", metrics.DefBuckets, "engine", "variant"),
		graphSeconds:     reg.Histogram("bo3_job_graph_seconds", "Graph-pool fetch time per executed job: cache hit, artifact load, generator build, or coalesced wait.", metrics.DefBuckets),
		persistSeconds:   reg.Histogram("bo3_job_persist_seconds", "Result-store write time per completed job.", metrics.DefBuckets),

		sweepsCompleted:    reg.Counter("bo3_sweeps_completed_total", "Sweeps that reached state done."),
		sweepsCancelled:    reg.Counter("bo3_sweeps_cancelled_total", "Sweeps cancelled before completion."),
		sweepsRejected:     reg.Counter("bo3_sweeps_rejected_total", "Sweep submissions rejected at admission."),
		sweepCellsFinished: reg.Counter("bo3_sweep_cells_finished_total", "Sweep child runs that reached a terminal state."),
		cellsCached:        reg.Counter("bo3_sweep_cells_cached_total", "Sweep cells answered from the persistent result store."),
	}
	// Pre-create the two engine series so the exposition (and the Stats
	// read-through) is deterministic from the first scrape, not from the
	// first executed job.
	m.jobsEngine.With("mean-field")
	m.jobsEngine.With("general")
	return m
}

// registerFuncMetrics registers the scrape-time metrics that read live
// manager state: gauges for instantaneous values, counter-funcs for
// monotone sequence numbers another mechanism owns (m.seq doubles as the
// gapless job-ID mint; m.sweepSeq also advances from journal ID
// reservation on resume, so neither can be a plain pushed counter).
// Called once from NewManager; the closures lock m.mu at scrape.
func (m *Manager) registerFuncMetrics(reg *metrics.Registry) {
	reg.CounterFunc("bo3_jobs_submitted_total", "Jobs admitted (the job-ID sequence number).", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.seq)
	})
	reg.CounterFunc("bo3_sweeps_submitted_total", "Sweeps admitted (the sweep-ID sequence number, journal reservations included).", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.sweepSeq)
	})
	reg.GaugeFunc("bo3_jobs_queued", "Jobs waiting on the bounded queue.", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.queued)
	})
	reg.GaugeFunc("bo3_jobs_running", "Jobs currently executing.", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.running)
	})
	reg.GaugeFunc("bo3_workers_busy", "Workers currently executing a job (worker-pool utilization together with bo3_workers).", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.running)
	})
	reg.GaugeFunc("bo3_sweeps_active", "Sweeps currently running.", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		n := 0
		for _, s := range m.sweeps {
			if s.state == StateRunning {
				n++
			}
		}
		return float64(n)
	})
	reg.GaugeFunc("bo3_uptime_seconds", "Seconds since manager start.", func() float64 {
		return time.Since(m.startTime).Seconds()
	})
	reg.GaugeFunc("bo3_bus_subscribers", "Event-stream subscribers currently attached.", func() float64 {
		return float64(m.bus.Stats().Subscribers)
	})
	reg.CounterFunc("bo3_artifact_evictions_total", "Artifact files evicted from the disk tier by its byte bound.", func() float64 {
		if m.cfg.Artifacts == nil {
			return 0
		}
		return float64(m.cfg.Artifacts.Evictions())
	})
}

// Registry exposes the manager's metrics registry (the one behind
// GET /metrics).
func (m *Manager) Registry() *metrics.Registry { return m.reg }

// AllMetricNames registers every metric family the full service can
// expose — serve, graph pool, bus, store/fleet — on a throwaway registry
// and returns the names. This is the source of truth the
// check-api-docs.sh doc-drift check scrapes (via internal/tools/registry)
// to require each metric documented in docs/API.md.
func AllMetricNames() []string {
	reg := metrics.NewRegistry()
	store.NewMetrics(reg)
	m := NewManager(Config{Workers: 1, Metrics: reg})
	defer m.Close(context.Background())
	return reg.Names()
}

// statusClass folds an HTTP status code to its exposition label ("2xx",
// "4xx", ...), keeping the route×code cardinality bounded.
func statusClass(code int) string {
	switch {
	case code < 200:
		return "1xx"
	case code < 300:
		return "2xx"
	case code < 400:
		return "3xx"
	case code < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// statusWriter captures the response status for the request counters. It
// always implements http.Flusher, forwarding when the underlying writer
// can flush — the /events streaming handlers depend on the capability
// probe succeeding through this wrapper.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
