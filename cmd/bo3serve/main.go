// Command bo3serve runs the Best-of-Three engine as a long-running
// HTTP/JSON simulation service (see internal/serve and docs/API.md for
// the API).
//
// Usage:
//
//	bo3serve -addr :8080 -workers 8 -cache 32 -seed 1
//
// Jobs are accepted on POST /v1/runs, executed on a bounded worker pool
// with an LRU-cached graph pool, and polled on GET /v1/runs/{id}.
// Parameter grids are accepted on POST /v1/sweeps, expanded server-side
// into child runs (at most -max-grid cells, at most -sweep-concurrency in
// flight per sweep), and streamed back as NDJSON on
// GET /v1/sweeps/{id}/results. SIGINT or SIGTERM starts a graceful
// shutdown: the listener stops, in-flight jobs get -drain to finish, then
// the rest are cancelled.
//
// With -artifact-dir set, the server layers a disk artifact tier under
// its in-memory graph pool: a pool miss first looks for a preprocessed
// binary artifact of the topology (built offline with `bo3graph build`,
// or written through by any server sharing the directory) and loads it
// with one checksummed read instead of re-running the generator; fresh
// CSR builds are written through for the next process. The directory is
// multi-process safe (atomic rename-into-place, checksum-gated loads)
// and -artifact-max-bytes bounds it with least-recently-used eviction.
//
// With -store-dir set, the server keeps a persistent result store there:
// completed jobs are recorded under their content key and identical
// resubmissions are answered from disk without recomputing; sweeps
// journal their lifecycle, and a server restarted over the same directory
// resumes any sweep that was interrupted mid-flight, executing only its
// unfinished cells. The recorded history is queryable over GET
// /v1/results and auditable offline with cmd/bo3store. -store-max-bytes
// caps the directory's size (oldest records dropped first).
//
// With -worker-id set (which requires -store-dir), the store is opened in
// shared mode and the server joins a fleet: any number of bo3serve
// processes with distinct worker IDs may point at the same directory.
// Sweep cells are partitioned through the store's claim/lease protocol —
// no two workers execute the same cell, results are first-write-wins, and
// a worker that dies mid-cell blocks that cell for at most -lease-ttl
// before a peer takes its lease over. Sweep IDs are namespaced per worker
// so fleets never collide in the shared journal. Shared mode is
// incompatible with -store-max-bytes (pruning needs exclusive ownership).
//
// Live telemetry streams from the bounded-backpressure event bus on
// GET /v1/runs/{id}/events, /v1/sweeps/{id}/events, and /v1/events (SSE
// or NDJSON, negotiated by Accept). Each watcher owns a ring of
// -event-buffer frames; a watcher that falls behind loses oldest frames
// first — counted in the `dropped` field of the next frame it receives
// and in /v1/stats events_dropped — and the simulations publish without
// ever waiting on a subscriber.
//
// Observability: every subsystem counts into one metrics registry,
// exposed as a Prometheus text exposition on GET /metrics (the /v1/stats
// JSON reads the same instruments). Logs are structured (log/slog) —
// -log-format json for machine ingestion, -log-level debug to widen —
// and every job-scoped line carries worker_id, job_id/sweep_id, and the
// spec's content key. -slowlog logs any job whose engine stage exceeds
// the threshold with its full queue → graph → engine → persist timing
// breakdown. -pprof serves net/http/pprof on a second listener, kept off
// the public mux so profiling endpoints are never exposed by accident.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/buildinfo"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "concurrent jobs (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 256, "job backlog before submissions are rejected")
		cacheCap  = flag.Int("cache", 16, "graph-pool capacity in graphs")
		rootSeed  = flag.Uint64("seed", 1, "root seed for jobs that omit one")
		trialPar  = flag.Int("trial-workers", 0, "per-job trial parallelism (0 = GOMAXPROCS/workers)")
		retention = flag.Int("retention", 0, "finished jobs kept queryable (0 = 1024)")
		maxN      = flag.Int("maxn", 0, "largest admissible graph (0 = default limit)")
		maxTrials = flag.Int("maxtrials", 0, "largest admissible trial count (0 = default limit)")
		maxGrid   = flag.Int("max-grid", 0, "largest admissible sweep-grid expansion in cells (0 = default limit)")
		sweepConc = flag.Int("sweep-concurrency", 0, "in-flight child runs per sweep (0 = workers)")
		drain     = flag.Duration("drain", 30*time.Second, "graceful-shutdown budget before jobs are cancelled")
		artDir    = flag.String("artifact-dir", "", "graph artifact directory: graph-pool misses load preprocessed topologies (bo3graph build) from here and write fresh builds through (empty = no artifact tier)")
		artMax    = flag.Int64("artifact-max-bytes", 0, "artifact-directory size cap in bytes; least-recently-used artifacts evicted first (0 = unbounded)")
		storeDir  = flag.String("store-dir", "", "persistent result store directory (empty = no store)")
		storeMax  = flag.Int64("store-max-bytes", 0, "result-store size cap in bytes; oldest records dropped first (0 = unbounded)")
		workerID  = flag.String("worker-id", "", "fleet identity; opens -store-dir shared so several servers coordinate over it (empty = exclusive, single server)")
		leaseTTL  = flag.Duration("lease-ttl", 0, "cell-claim lease duration in fleet mode (0 = 1m)")
		eventBuf  = flag.Int("event-buffer", 0, "per-subscriber event ring on the /events streams; slower watchers drop oldest frames first (0 = 256)")
		logLevel  = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", "log encoding: text or json")
		slowlog   = flag.Duration("slowlog", 0, "log any job whose engine stage exceeds this, with its full per-stage timing breakdown (0 = disabled)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this separate address (empty = disabled)")
		version   = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("bo3serve", buildinfo.Short())
		return
	}

	logger, err := newLogger(*logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bo3serve:", err)
		os.Exit(1)
	}
	fatal := func(msg string, args ...any) {
		logger.Error(msg, args...)
		os.Exit(1)
	}
	if *workerID != "" && *storeDir == "" {
		fatal("-worker-id requires -store-dir: fleet coordination lives in the shared store")
	}
	if err := serve.ValidateWorkerID(*workerID); err != nil {
		fatal("invalid -worker-id", "err", err)
	}

	reg := metrics.NewRegistry()

	limits := serve.DefaultLimits()
	if *maxN > 0 {
		limits.MaxN = *maxN
	}
	if *maxTrials > 0 {
		limits.MaxTrials = *maxTrials
	}
	if *maxGrid > 0 {
		limits.MaxSweepCells = *maxGrid
	}
	var artifacts *artifact.Dir
	if *artDir != "" {
		var err error
		artifacts, err = artifact.OpenDir(*artDir, *artMax)
		if err != nil {
			fatal("artifact directory open failed", "dir", *artDir, "err", err)
		}
		logger.Info("artifact directory open", "dir", *artDir, "artifacts", artifacts.Len())
	} else if *artMax != 0 {
		fatal("-artifact-max-bytes requires -artifact-dir")
	}
	var resultStore *store.Store
	if *storeDir != "" {
		var err error
		resultStore, err = store.Open(*storeDir, store.Options{
			MaxBytes: *storeMax,
			Shared:   *workerID != "",
			Metrics:  store.NewMetrics(reg),
			Logger:   logger,
		})
		if err != nil {
			fatal("result store open failed", "dir", *storeDir, "err", err)
		}
		st := resultStore.Stats()
		logger.Info("result store open", "dir", *storeDir,
			"results", st.Results, "sweeps", st.Sweeps, "bytes", st.Bytes)
		if *workerID != "" {
			logger.Info("fleet mode", "worker_id", *workerID, "lease_ttl", max(*leaseTTL, time.Minute))
		}
	}
	mgr := serve.NewManager(serve.Config{
		Workers:          *workers,
		QueueDepth:       *queue,
		CacheCapacity:    *cacheCap,
		RootSeed:         *rootSeed,
		TrialParallelism: *trialPar,
		Retention:        *retention,
		SweepConcurrency: *sweepConc,
		Limits:           limits,
		Artifacts:        artifacts,
		Store:            resultStore,
		WorkerID:         *workerID,
		LeaseTTL:         *leaseTTL,
		EventBuffer:      *eventBuf,
		Metrics:          reg,
		Logger:           logger,
		SlowThreshold:    *slowlog,
	})
	if resultStore != nil {
		// Finish whatever a previous generation left mid-flight before
		// the listener opens: recorded cells answer from the store, the
		// rest execute.
		resumed, err := mgr.ResumeSweeps()
		if err != nil {
			logger.Warn("sweep resume failed", "err", err)
		}
		if resumed > 0 {
			logger.Info("resumed interrupted sweeps", "sweeps", resumed)
		}
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           serve.NewServer(mgr),
		ReadHeaderTimeout: 10 * time.Second,
	}

	if *pprofAddr != "" {
		// An explicit mux on its own listener: the profiling surface never
		// rides the public API mux, and the DefaultServeMux registrations
		// the pprof package performs at init are ignored.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Addr: *pprofAddr, Handler: pm, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("pprof listener failed", "addr", *pprofAddr, "err", err)
			}
		}()
		logger.Info("pprof listening", "addr", *pprofAddr)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("listening", "addr", *addr, "version", buildinfo.Get().Version)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Info("shutdown signal received", "signal", sig.String(), "drain", *drain)
	case err := <-errc:
		fatal("listener failed", "err", err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("http shutdown incomplete", "err", err)
	}
	if err := mgr.Close(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("manager shutdown incomplete", "err", err)
	}
	if resultStore != nil {
		// Closed strictly after the manager: the final journal and result
		// records are written during Close's drain.
		if err := resultStore.Close(); err != nil {
			logger.Warn("store shutdown failed", "err", err)
		}
	}
	logger.Info("bye")
}

// newLogger builds the process logger from the -log-level and -log-format
// flags. Logs go to stderr so NDJSON piped from a future stdout mode
// would stay clean.
func newLogger(level, format string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: want debug, info, warn, or error", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("bad -log-format %q: want text or json", format)
	}
}
