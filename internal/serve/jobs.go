package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/bus"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/spec"
)

// Limits bound what a single request may ask of the server. The
// graph/rule/run checks themselves live in the spec package; these are
// only the admission ceilings this server plugs into them.
type Limits struct {
	// MaxN is the largest admissible vertex count.
	MaxN int
	// MaxEdges is the largest admissible materialised edge count.
	MaxEdges int64
	// MaxTrials caps trials per job.
	MaxTrials int
	// MaxRounds caps the per-run round budget a client may request.
	MaxRounds int
	// MaxSweepCells caps how many child runs one sweep grid may expand
	// into.
	MaxSweepCells int
}

// spec converts the admission ceilings to the spec package's limit type.
func (l Limits) spec() spec.Limits {
	return spec.Limits{MaxN: l.MaxN, MaxEdges: l.MaxEdges, MaxTrials: l.MaxTrials, MaxRounds: l.MaxRounds}
}

// DefaultLimits are sized for a few GiB of RAM: the largest admissible CSR
// graph is ~1 GiB of adjacency.
func DefaultLimits() Limits {
	return Limits{
		MaxN:          1 << 22,
		MaxEdges:      1 << 27,
		MaxTrials:     4096,
		MaxRounds:     1 << 20,
		MaxSweepCells: 4096,
	}
}

// withDefaults gives every zero field its DefaultLimits value, so a
// partial Limits overrides only the ceilings it names.
func (l Limits) withDefaults() Limits {
	d := DefaultLimits()
	return Limits{
		MaxN:          cmp.Or(l.MaxN, d.MaxN),
		MaxEdges:      cmp.Or(l.MaxEdges, d.MaxEdges),
		MaxTrials:     cmp.Or(l.MaxTrials, d.MaxTrials),
		MaxRounds:     cmp.Or(l.MaxRounds, d.MaxRounds),
		MaxSweepCells: cmp.Or(l.MaxSweepCells, d.MaxSweepCells),
	}
}

// Config configures a Manager.
type Config struct {
	// Workers is the number of jobs executed concurrently (0 =
	// GOMAXPROCS).
	Workers int
	// QueueDepth is the bounded backlog; submissions beyond it are
	// rejected with ErrQueueFull (0 = 256).
	QueueDepth int
	// CacheCapacity is the graph-pool size in graphs (0 = 16).
	CacheCapacity int
	// RootSeed derives job seeds for requests that leave Seed zero:
	// job k gets rng.ChildSeed(RootSeed, k). The effective seed is
	// recorded in the result, so such jobs stay reproducible.
	RootSeed uint64
	// TrialParallelism is the per-job sim worker count. 0 derives
	// max(1, GOMAXPROCS/Workers) so that the whole pool running
	// multi-trial jobs keeps total trial goroutines near GOMAXPROCS
	// instead of Workers × GOMAXPROCS.
	TrialParallelism int
	// Retention caps how many finished jobs stay queryable; the oldest
	// finished jobs beyond it are evicted (0 = 1024). Finished sweeps are
	// retained under the same cap.
	Retention int
	// SweepConcurrency is the default cap on a sweep's in-flight child
	// runs (0 = Workers). A sweep request may lower it per sweep, never
	// raise it.
	SweepConcurrency int
	// Limits caps what one request may ask; each zero field takes its
	// DefaultLimits value.
	Limits Limits
	// Artifacts is the disk-backed graph artifact directory (nil =
	// disabled; bo3serve opens it from -artifact-dir). With a directory
	// attached, a graph-pool miss loads the topology from its
	// preprocessed artifact when one exists (bo3graph build, or a fleet
	// peer's write-through) instead of running the generator, and freshly
	// generated CSR topologies are written through for the next process.
	// The manager does not own the directory.
	Artifacts *artifact.Dir
	// Store is the persistent result store (nil = disabled). With a store
	// attached, a submission whose content key is already recorded is
	// answered from disk without touching the worker pool, every executed
	// job is persisted on completion, and sweeps journal their lifecycle
	// so ResumeSweeps can finish them after a crash. The manager does not
	// own the store: the caller closes it after Close.
	Store *store.Store
	// WorkerID names this process in a fleet of servers sharing one store
	// directory (store must be opened with store.Options.Shared). With an
	// ID set, sweep cells are partitioned through the store's claim/lease
	// protocol — no two workers execute the same cell concurrently — and
	// sweep IDs are namespaced "sweep-<id>-NNNNNN" so fleets never collide
	// in the shared journal. Empty disables claims (the single-process
	// default). bo3serve admits only IDs ValidateWorkerID accepts.
	WorkerID string
	// LeaseTTL is how long a cell claim lives without renewal (0 = 1
	// minute). A worker that dies mid-cell blocks that cell for at most
	// one TTL before a peer takes the lease over.
	LeaseTTL time.Duration
	// LeasePoll is how often a scheduler blocked on another worker's
	// lease re-checks for its result or expiry (0 = LeaseTTL/20, clamped
	// to [5ms, 500ms]).
	LeasePoll time.Duration
	// EventBuffer is the per-subscriber ring size on the /events streams
	// (0 = 256). A subscriber that falls further behind than this loses
	// oldest frames first and is told how many (the `dropped` field on the
	// next frame it receives); the publishing simulation never waits.
	EventBuffer int
	// FrameBudget caps the trajectory frames one run publishes across all
	// its trials (0 = bus.DefaultFrameBudget = 256): rounds are decimated
	// to a fixed stride derived from the run's round budget, so watching a
	// 10⁶-round run costs O(FrameBudget), not O(rounds).
	FrameBudget int
	// Heartbeat is the idle keep-alive interval on /events streams (0 =
	// 15s).
	Heartbeat time.Duration
	// MetricsInterval is how often the server-wide metrics topic publishes
	// a stats frame while it has subscribers (0 = 1s).
	MetricsInterval time.Duration
	// Metrics is the registry every subsystem instrument registers on —
	// the one GET /metrics exposes (nil = a private registry; counters
	// still work, nothing is exported). The same registry should be passed
	// to store.Options.Metrics so the store and fleet families share the
	// exposition.
	Metrics *metrics.Registry
	// Logger receives the manager's structured logs (nil = discard). With
	// WorkerID set, every line carries a worker_id attribute.
	Logger *slog.Logger
	// SlowThreshold makes the manager log any job whose engine stage runs
	// longer than this, with its spec key and the full queue → graph →
	// engine → persist timing breakdown (0 = disabled).
	SlowThreshold time.Duration
}

// Sentinel errors mapped to HTTP status codes by the handlers.
var (
	// ErrQueueFull rejects submissions when the backlog is at capacity.
	ErrQueueFull = errors.New("serve: job queue is full")
	// ErrClosed rejects submissions after shutdown has begun.
	ErrClosed = errors.New("serve: manager is shut down")
)

// job is the internal mutable record behind a JobView.
type job struct {
	id  string
	seq uint64
	req RunRequest
	// effSeed is the seed the job actually runs with: the request's, or
	// one derived from the root seed at admission for requests that left
	// it zero. Fixed at enqueue so the job's content key is known before
	// it executes.
	effSeed uint64
	// key is the content address (spec.RunSpec.ContentKey of the request
	// with effSeed applied); "" when the manager has no store.
	key string
	// claimed marks a sweep cell executing under a store lease; the
	// worker renews the lease while running and releases it (fenced by
	// claimFence) if execution fails without a result.
	claimed    bool
	claimFence uint64
	state      string
	err        error
	result     *RunResult
	created    time.Time
	started    time.Time
	finished   time.Time
	// Per-stage wall times, written by the executing worker before the
	// terminal transition; they feed the stage histograms and the slowlog
	// breakdown.
	graphDur   time.Duration
	engineDur  time.Duration
	persistDur time.Duration
	cancel     context.CancelFunc // set while running
	// owner is the sweep whose cell this job runs (nil for standalone
	// runs) and cell that cell's index; the job's terminal transition
	// finishes the cell.
	owner *sweep
	cell  int
}

// sweepID names the owning sweep, "" for standalone runs.
func (j *job) sweepID() string {
	if j.owner == nil {
		return ""
	}
	return j.owner.id
}

// Manager owns the job table, the bounded worker pool, and the graph pool.
// All exported methods are safe for concurrent use.
type Manager struct {
	cfg    Config
	cache  *GraphCache
	bus    *bus.Bus
	reg    *metrics.Registry
	mx     *serveMetrics
	logger *slog.Logger

	baseCtx     context.Context
	cancelBase  context.CancelFunc
	queue       chan *job
	metricsStop chan struct{}
	wg          sync.WaitGroup

	sweepWG sync.WaitGroup // sweep scheduler goroutines

	mu     sync.Mutex
	closed bool
	jobs   map[string]*job
	order  []string // submission order, for listing
	seq    uint64

	sweeps     map[string]*sweep
	sweepOrder []string
	sweepSeq   uint64

	// Instantaneous pool state; guarded by mu, exported as gauge funcs.
	// The lifecycle counters the old int64 fields held live in m.mx now —
	// Stats() reads the instruments back, so /v1/stats and /metrics share
	// one source of truth.
	queued, running int
	startTime       time.Time
}

// NewManager starts the worker pool and returns the manager.
func NewManager(cfg Config) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.CacheCapacity <= 0 {
		cfg.CacheCapacity = 16
	}
	if cfg.TrialParallelism <= 0 {
		cfg.TrialParallelism = max(1, runtime.GOMAXPROCS(0)/cfg.Workers)
	}
	if cfg.Retention <= 0 {
		cfg.Retention = 1024
	}
	cfg.Limits = cfg.Limits.withDefaults()
	if cfg.SweepConcurrency <= 0 {
		cfg.SweepConcurrency = cfg.Workers
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = time.Minute
	}
	if cfg.LeasePoll <= 0 {
		cfg.LeasePoll = min(max(cfg.LeaseTTL/20, 5*time.Millisecond), 500*time.Millisecond)
	}
	if cfg.EventBuffer <= 0 {
		cfg.EventBuffer = 256
	}
	if cfg.FrameBudget <= 0 {
		cfg.FrameBudget = bus.DefaultFrameBudget
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 15 * time.Second
	}
	if cfg.MetricsInterval <= 0 {
		cfg.MetricsInterval = time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	logger := cfg.Logger
	if cfg.WorkerID != "" {
		logger = logger.With("worker_id", cfg.WorkerID)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cache := NewGraphCache(cfg.CacheCapacity)
	cache.UseArtifacts(cfg.Artifacts)
	cache.instrument(cfg.Metrics)
	m := &Manager{
		cfg:         cfg,
		cache:       cache,
		bus:         bus.NewInstrumented(bus.NewMetrics(cfg.Metrics)),
		reg:         cfg.Metrics,
		mx:          newServeMetrics(cfg.Metrics),
		logger:      logger,
		baseCtx:     ctx,
		cancelBase:  cancel,
		queue:       make(chan *job, cfg.QueueDepth),
		metricsStop: make(chan struct{}),
		jobs:        make(map[string]*job),
		sweeps:      make(map[string]*sweep),
		startTime:   time.Now(),
	}
	m.mx.workers.Set(int64(cfg.Workers))
	m.registerFuncMetrics(cfg.Metrics)
	m.bus.Topic(MetricsTopic, metricsRetain)
	m.wg.Add(1)
	go m.metricsLoop()
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Submit validates the request, assigns an ID, and enqueues the job. The
// returned view is in state "queued" — unless the persistent result store
// already holds the request's content key, in which case the job is born
// "done" with the recorded result and never touches the worker pool. A
// full queue fails fast with ErrQueueFull rather than blocking the
// client.
func (m *Manager) Submit(req RunRequest) (JobView, error) {
	if err := validateRun(&req, m.cfg.Limits); err != nil {
		m.mx.jobsRejected.Inc()
		return JobView{}, err
	}
	cached := m.lookupStored(req)
	m.mu.Lock()
	j, err := m.enqueueLocked(req, nil, 0, cached)
	if err != nil {
		m.mx.jobsRejected.Inc()
		m.mu.Unlock()
		return JobView{}, err
	}
	v := m.viewLocked(j)
	m.mu.Unlock()
	return v, nil
}

// contentKey renders the request's content address with the effective
// seed applied, matching the canonical spec the store records.
func contentKey(req RunRequest, effSeed uint64) string {
	req.Seed = effSeed
	return req.ContentKey()
}

// lookupStored consults the result store for a recorded result of this
// exact request. Requests that omit the seed always miss — their
// effective seed is minted fresh at admission — so only explicit-seed
// requests pay the disk read. Called without m.mu held: the read must not
// stall snapshot readers.
func (m *Manager) lookupStored(req RunRequest) *RunResult {
	if m.cfg.Store == nil || req.Seed == 0 {
		return nil
	}
	rec, ok, err := m.cfg.Store.GetResult(contentKey(req, req.Seed))
	if !ok || err != nil {
		return nil
	}
	var r RunResult
	if json.Unmarshal(rec.Body, &r) != nil {
		return nil
	}
	r.Cached = true
	return &r
}

// enqueueLocked creates the job record and places it on the bounded queue
// — or, when cached carries a stored result, finishes it on the spot.
// Callers hold m.mu and have already validated the request; owner and
// cell name the sweep cell a child run executes (nil for standalone
// submissions).
func (m *Manager) enqueueLocked(req RunRequest, owner *sweep, cell int, cached *RunResult) (*job, error) {
	if m.closed {
		return nil, ErrClosed
	}
	effSeed := req.Seed
	if effSeed == 0 {
		effSeed = rng.ChildSeed(m.cfg.RootSeed, m.seq)
	}
	j := &job{
		id:      fmt.Sprintf("run-%06d", m.seq),
		seq:     m.seq,
		req:     req,
		effSeed: effSeed,
		owner:   owner,
		cell:    cell,
		state:   StateQueued,
		created: time.Now(),
	}
	if m.cfg.Store != nil {
		j.key = contentKey(req, effSeed)
	}
	if cached != nil {
		// Store hit: the job is born done. It still gets a gapless ID and
		// a listing entry — it is a real job from the client's point of
		// view — but skips the queue entirely, so a hit costs one disk
		// read regardless of pool pressure. Prune before registering:
		// born finished, the job is immediately evictable, and a
		// retention table full of protected sweep children would
		// otherwise evict it in this very call — answering 202 with an ID
		// that instantly 404s.
		m.pruneLocked()
		j.started = j.created
	} else {
		select {
		case m.queue <- j:
			m.queued++
		default:
			return nil, ErrQueueFull
		}
	}
	// The sequence number (= Stats.Submitted) only advances for jobs
	// actually accepted, so IDs stay gapless and the counters reconcile:
	// submitted = queued + running + terminal states.
	m.seq++
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	// The retained prefix must hold a full decimated trajectory plus the
	// lifecycle frames, so a late joiner replays the whole run.
	m.bus.Topic(runTopic(j.id), m.cfg.FrameBudget+16)
	if owner != nil {
		owner.cells[cell].jobID = j.id
		owner.cells[cell].state = StateQueued
	}
	if cached != nil {
		// Born done: the topic's whole life is one terminal state event
		// (with the cached result attached) followed by EOF.
		m.finishLocked(j, StateDone, cached, nil)
		return j, nil
	}
	m.publishJobState(j)
	m.pruneLocked()
	return j, nil
}

// pruneLocked evicts the oldest finished jobs beyond the retention cap so
// a long-lived server does not accumulate every job ever run; callers
// hold m.mu. Queued and running jobs are never evicted, and neither are
// children of a still-running sweep — a cap-sized grid can exceed the
// retention cap, and evicting its finished cells mid-sweep would break
// the per-trial drill-down (GET /v1/runs/{job_id}) the sweep view
// promises. Such children become evictable once their sweep finishes.
//
// Jobs finish roughly in admission order, so the evictable jobs are
// usually at the front of m.order: popping them costs only what is
// evicted. A job that must stay at the front falls back to one
// compacting walk, which evicts the same jobs in the same order.
func (m *Manager) pruneLocked() {
	excess := len(m.order) - m.cfg.Retention
	for excess > 0 && m.evictableLocked(m.order[0]) {
		m.evictLocked(m.order[0])
		m.order = m.order[1:]
		excess--
	}
	if excess <= 0 {
		return
	}
	kept := m.order[:0]
	for i, id := range m.order {
		if excess == 0 {
			kept = append(kept, m.order[i:]...)
			break
		}
		if m.evictableLocked(id) {
			m.evictLocked(id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// evictableLocked reports whether pruning may evict the job: it has
// finished, and it is no cell of a still-running sweep.
func (m *Manager) evictableLocked(id string) bool {
	j := m.jobs[id]
	if j.owner != nil && j.owner.state == StateRunning {
		return false
	}
	return j.state == StateDone || j.state == StateFailed || j.state == StateCancelled
}

// evictLocked forgets the job and drops its event topic.
func (m *Manager) evictLocked(id string) {
	delete(m.jobs, id)
	m.bus.Drop(runTopic(id))
}

// Get returns a snapshot of the job.
func (m *Manager) Get(id string) (JobView, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, false
	}
	return m.viewLocked(j), true
}

// List returns snapshots of the most recent jobs, newest first, up to max
// (0 = 100).
func (m *Manager) List(max int) []JobView {
	if max <= 0 {
		max = 100
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobView, 0, min(max, len(m.order)))
	for i := len(m.order) - 1; i >= 0 && len(out) < max; i-- {
		out = append(out, m.viewLocked(m.jobs[m.order[i]]))
	}
	return out
}

// Cancel requests cancellation of a queued or running job. It returns the
// post-cancel snapshot, or ok = false for an unknown ID. Cancelling a
// finished job is a no-op.
func (m *Manager) Cancel(id string) (JobView, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobView{}, false
	}
	m.cancelJobLocked(j)
	return m.viewLocked(j), true
}

// cancelJobLocked cancels one queued or running job; callers hold m.mu.
func (m *Manager) cancelJobLocked(j *job) {
	switch j.state {
	case StateQueued:
		// The worker that eventually pops it observes the state and drops
		// it without running.
		m.queued--
		m.finishLocked(j, StateCancelled, nil, nil)
	case StateRunning:
		j.cancel() // the worker finalises state when the run returns
	}
}

// Stats returns a counter snapshot including the graph pool's. The wire
// counters are read back from the same registry instruments /metrics
// exposes — one source of truth, so the JSON and the exposition can
// never drift apart.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	active := 0
	for _, s := range m.sweeps {
		if s.state == StateRunning {
			active++
		}
	}
	st := Stats{
		Submitted:          int64(m.seq),
		Completed:          m.mx.jobsCompleted.Value(),
		Failed:             m.mx.jobsFailed.Value(),
		Cancelled:          m.mx.jobsCancelled.Value(),
		Rejected:           m.mx.jobsRejected.Value(),
		Queued:             m.queued,
		Running:            m.running,
		TrialsRun:          m.mx.trialsRun.Value(),
		RoundsRun:          m.mx.roundsRun.Value(),
		JobsMeanField:      m.mx.jobsEngine.With("mean-field").Value(),
		JobsGeneral:        m.mx.jobsEngine.With("general").Value(),
		JobsCached:         m.mx.jobsCached.Value(),
		StoreErrors:        m.mx.storeErrors.Value(),
		SweepsSubmitted:    int64(m.sweepSeq),
		SweepsCompleted:    m.mx.sweepsCompleted.Value(),
		SweepsCancelled:    m.mx.sweepsCancelled.Value(),
		SweepsRejected:     m.mx.sweepsRejected.Value(),
		SweepsActive:       active,
		SweepCellsFinished: m.mx.sweepCellsFinished.Value(),
		CellsCached:        m.mx.cellsCached.Value(),
		WorkerID:           m.cfg.WorkerID,
		Cache:              m.cache.Stats(),
		ArtifactsEnabled:   m.cfg.Artifacts != nil,
		UptimeSeconds:      time.Since(m.startTime).Seconds(),
		Workers:            m.cfg.Workers,
	}
	// The variant vec only ever holds series for variants that executed,
	// so this reproduces the old lazily-built map (nil until a job runs).
	if vs := m.mx.jobsVariant.Values(); len(vs) > 0 {
		st.JobsByVariant = vs
	}
	bs := m.bus.Stats()
	st.EventsPublished = int64(bs.Published)
	st.EventsDropped = int64(bs.Dropped)
	st.Subscribers = bs.Subscribers
	st.GraphsArtifactHits, st.GraphsArtifactMisses = m.cache.ArtifactStats()
	if m.cfg.Store != nil {
		ss := m.cfg.Store.Stats()
		st.ResultStore = &ss
	}
	return st
}

// Close shuts the manager down: no new submissions are accepted, queued
// and running jobs are given until ctx expires to drain, then everything
// still in flight is cancelled. Close always waits for the workers to
// exit; it returns ctx.Err() if the deadline forced cancellation.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
		close(m.metricsStop)
	}
	m.mu.Unlock()

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		m.sweepWG.Wait() // schedulers exit once their children finish
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		m.cancelBase()
		<-done
		return ctx.Err()
	}
}

// viewLocked snapshots a job; callers hold m.mu. The result pointer is
// shared but written exactly once before the state becomes done, so
// readers never observe mutation.
func (m *Manager) viewLocked(j *job) JobView {
	v := JobView{
		ID:      j.id,
		State:   j.state,
		Request: j.req,
		Sweep:   j.sweepID(),
		Result:  j.result,
		Created: j.created,
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// worker drains the queue until Close.
func (m *Manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.mu.Lock()
		if j.state != StateQueued { // cancelled while queued
			m.mu.Unlock()
			continue
		}
		ctx, cancel := context.WithCancel(m.baseCtx)
		j.state = StateRunning
		j.started = time.Now()
		j.cancel = cancel
		m.queued--
		m.running++
		m.publishJobState(j)
		m.mu.Unlock()

		var stopRenew chan struct{}
		if j.claimed {
			stopRenew = make(chan struct{})
			go m.renewLease(j, stopRenew)
		}
		result, err := m.run(ctx, j)
		cancel()
		if stopRenew != nil {
			close(stopRenew)
		}
		switch {
		case err == nil:
			// Record before the terminal transition: once a client can see
			// the job done, its result is already replayable from the
			// store (and a crash between the two recomputes, never loses).
			// The result record also supersedes any claim on the key, so
			// the completion path never writes a release.
			pStart := time.Now()
			m.persistResult(j, result)
			j.persistDur = time.Since(pStart)
		case j.claimed && !errors.Is(err, context.Canceled):
			// Failed execution under a lease: give the key up so a peer may
			// retry. Cancellation deliberately does NOT release — shutdown
			// is indistinguishable from a crash fleet-wide, and the expiry
			// path covers both.
			if rerr := m.cfg.Store.Release(j.key, m.cfg.WorkerID, j.claimFence); rerr != nil && !errors.Is(rerr, store.ErrLeaseLost) {
				m.mx.storeErrors.Inc()
				m.logger.Warn("serve: lease release failed", "job_id", j.id, "key", j.key, "sweep_id", j.sweepID(), "err", rerr)
			}
		}

		m.mu.Lock()
		j.cancel = nil
		m.running--
		switch {
		case err == nil:
			m.finishLocked(j, StateDone, result, nil)
		case errors.Is(err, context.Canceled):
			m.finishLocked(j, StateCancelled, nil, nil)
		default:
			m.finishLocked(j, StateFailed, nil, err)
		}
		m.mu.Unlock()
	}
}

// finishLocked is a job's one terminal transition: executed done, failed,
// cancelled while running or while queued, and born done from a store hit
// all end here. Callers hold m.mu. It counts the outcome, publishes the
// terminal state (closing the run topic) and, for a sweep child, finishes
// the cell it runs.
func (m *Manager) finishLocked(j *job, state string, result *RunResult, err error) {
	j.state, j.result, j.err = state, result, err
	j.finished = time.Now()
	switch {
	case state == StateDone && result.Cached:
		m.mx.jobsCompleted.Inc()
		m.mx.jobsCached.Inc()
	case state == StateDone:
		result.QueueMS = j.started.Sub(j.created).Milliseconds()
		m.mx.jobsCompleted.Inc()
		m.mx.trialsRun.Add(int64(result.Trials))
		for _, r := range result.Reports {
			m.mx.roundsRun.Add(int64(r.Rounds))
		}
		m.mx.jobsEngine.With(result.Engine).Inc()
		// The wire result omits the sync default; the counter spells it
		// out so the stats split always sums to the executed jobs.
		variant := cmp.Or(result.Variant, "sync")
		m.mx.jobsVariant.With(variant).Inc()
		m.observeStages(j, result.Engine, variant)
	case state == StateCancelled:
		m.mx.jobsCancelled.Inc()
	default:
		m.mx.jobsFailed.Inc()
		m.logger.Warn("serve: job failed", "job_id", j.id, "key", j.key, "sweep_id", j.sweepID(), "err", err)
	}
	m.publishJobState(j) // terminal: closes the run topic
	if j.owner != nil {
		m.finishCellLocked(j)
	}
}

// observeStages feeds an executed job's per-stage wall times into the
// latency histograms and, when the engine stage exceeded the slowlog
// threshold, logs the full breakdown. Called at the done transition with
// m.mu held (the instruments themselves are lock-free).
func (m *Manager) observeStages(j *job, engine, variant string) {
	queueWait := j.started.Sub(j.created)
	m.mx.queueWaitSeconds.With(engine, variant).Observe(queueWait.Seconds())
	m.mx.execSeconds.With(engine, variant).Observe(j.engineDur.Seconds())
	m.mx.graphSeconds.Observe(j.graphDur.Seconds())
	m.mx.persistSeconds.Observe(j.persistDur.Seconds())
	if t := m.cfg.SlowThreshold; t > 0 && j.engineDur > t {
		m.logger.Warn("serve: slow job",
			"job_id", j.id, "key", j.key, "sweep_id", j.sweepID(),
			"engine", engine, "variant", variant,
			"queue_ms", queueWait.Milliseconds(),
			"graph_ms", j.graphDur.Milliseconds(),
			"engine_ms", j.engineDur.Milliseconds(),
			"persist_ms", j.persistDur.Milliseconds(),
			"threshold_ms", t.Milliseconds())
	}
}

// renewLease extends the job's cell lease every LeaseTTL/3 until stop
// closes. A failed renewal means the lease expired under scheduling
// pressure and a peer took it over: execution continues — the duplicated
// work is wasted, not wrong, because results are first-write-wins — but
// renewing stops.
func (m *Manager) renewLease(j *job, stop <-chan struct{}) {
	t := time.NewTicker(max(m.cfg.LeaseTTL/3, time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if err := m.cfg.Store.Renew(j.key, m.cfg.WorkerID, j.claimFence, m.cfg.LeaseTTL); err != nil {
				return
			}
		}
	}
}

// claimsEnabled reports whether sweep cells go through the store's
// claim/lease protocol: a store is attached and this process has a fleet
// identity.
func (m *Manager) claimsEnabled() bool {
	return m.cfg.Store != nil && m.cfg.WorkerID != ""
}

// run executes one job: fetch the graph from the pool and hand the spec
// (with the effective seed fixed at admission) to the shared execution
// path. Because that path is the same repro.Runner the library and the
// CLIs execute, a job's per-trial outcomes are byte-identical to running
// its spec anywhere else.
func (m *Manager) run(ctx context.Context, j *job) (*RunResult, error) {
	gStart := time.Now()
	g, cacheHit, err := m.cache.Get(j.req.Graph)
	j.graphDur = time.Since(gStart)
	if err != nil {
		return nil, err
	}
	runSpec := j.req
	runSpec.Seed = j.effSeed
	eStart := time.Now()
	res, err := executeSpec(ctx, runSpec, g, m.cfg.TrialParallelism, m.trajectoryObserver(j, g, runSpec))
	j.engineDur = time.Since(eStart)
	if err != nil {
		return nil, err
	}
	res.CacheHit = cacheHit
	return res, nil
}

// persistResult records a completed job's canonical (spec, result) pair
// under its content key. Store failures are counted, never propagated:
// the result is correct whether or not it was recorded.
func (m *Manager) persistResult(j *job, res *RunResult) {
	if m.cfg.Store == nil {
		return
	}
	specJSON, err := json.Marshal(canonicalSpec(j.req, j.effSeed))
	if err == nil {
		var bodyJSON []byte
		if bodyJSON, err = json.Marshal(CanonicalResult(*res)); err == nil {
			_, err = m.cfg.Store.PutResult(j.key, specJSON, bodyJSON)
		}
	}
	if err != nil {
		m.mx.storeErrors.Inc()
		m.logger.Warn("serve: result persist failed", "job_id", j.id, "key", j.key, "sweep_id", j.sweepID(), "err", err)
	}
}

// canonicalSpec is the spec the store records: the request with its
// documented defaults applied and the effective seed filled in, so the
// stored JSON is exactly a request any entry point replays bit-for-bit.
func canonicalSpec(req RunRequest, effSeed uint64) RunRequest {
	req.Seed = effSeed
	req.Normalize()
	return req
}

// tallyReports folds per-trial reports into a sim.Tally; sweeps rebuild the
// same tally per cell so job- and sweep-level aggregates agree exactly.
func tallyReports(reports []TrialReport) sim.Tally {
	var tl sim.Tally
	for _, r := range reports {
		tl.Add(r.Rounds, r.RedWon, r.Consensus)
	}
	return tl
}
