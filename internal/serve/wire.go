package serve

import (
	"time"

	"repro/internal/store"
	"repro/spec"
)

// The request vocabulary of the wire API is the spec package verbatim: the
// server defines no graph/rule/run shapes or validation of its own, so a
// spec that works in the library or the CLIs is byte-for-byte the JSON a
// client POSTs here. Only HTTP-specific concerns remain in this package:
// admission limits (Limits), job/sweep lifecycle views, and counters.
type (
	// GraphSpec names a topology for a simulation job; see spec.GraphSpec.
	GraphSpec = spec.GraphSpec
	// RuleSpec selects a Best-of-k protocol over the wire; see
	// spec.RuleSpec.
	RuleSpec = spec.RuleSpec
	// RunRequest is the body of POST /v1/runs; it is exactly a
	// spec.RunSpec. Trial i of a job with seed s runs with
	// rng.ChildSeed(s, i); a zero seed is replaced by a server-derived one,
	// recorded in the response, so every job is reproducible after the
	// fact.
	RunRequest = spec.RunSpec
	// SweepGrid is the cross-product grid of POST /v1/sweeps; see
	// spec.Grid.
	SweepGrid = spec.Grid
)

// validateRun applies the spec defaults and checks the request against the
// server's admission limits. All graph/rule/parameter validation is the
// spec package's; only the limit values are the server's.
func validateRun(r *RunRequest, limits Limits) error {
	r.Normalize()
	return r.ValidateLimits(limits.spec())
}

// TrialReport is the per-trial slice of a result.
type TrialReport struct {
	// RedWon reports whether the final (consensus or majority) opinion was
	// Red, the initial majority.
	RedWon bool `json:"red_won"`
	// Consensus reports whether the run reached a monochromatic state.
	Consensus bool `json:"consensus"`
	// Rounds is the number of rounds executed.
	Rounds int `json:"rounds"`
}

// RunResult is the aggregate outcome of a completed job.
type RunResult struct {
	Trials    int `json:"trials"`
	RedWins   int `json:"red_wins"`
	Consensus int `json:"consensus"`
	// MeanRounds and MaxRounds summarise the per-trial round counts.
	MeanRounds float64 `json:"mean_rounds"`
	MaxRounds  int     `json:"max_rounds"`
	// PredictedRounds is the Theorem 1 estimate for the instance.
	PredictedRounds int `json:"predicted_rounds"`
	// Precondition is the one-line Theorem 1 hypothesis diagnostic.
	Precondition string `json:"precondition"`
	// PreconditionOK reports whether both Theorem 1 hypotheses hold.
	PreconditionOK bool `json:"precondition_ok"`
	// Seed is the effective job seed (assigned by the server when the
	// request left it zero); replaying the same request with this seed
	// reproduces the result exactly.
	Seed uint64 `json:"seed"`
	// GraphName is the engine's name for the topology.
	GraphName string `json:"graph_name"`
	// Rule is the resolved protocol name, e.g. "best-of-3".
	Rule string `json:"rule"`
	// Engine is the resolved round engine the trials executed on:
	// "mean-field" (the O(1)-per-round complete-graph fast path) or
	// "general" (per-vertex sampling). Requests opt out of the
	// fast path with `"engine": "general"` on the RunRequest.
	Engine string `json:"engine"`
	// Variant is the resolved opinion dynamic the trials executed
	// ("async", "stubborn", "plurality"); omitted for the synchronous
	// default, so results of plain runs — including every record the
	// result store persisted before the variant axis existed — are
	// byte-identical to the pre-variant wire format.
	Variant string `json:"variant,omitempty"`
	// CacheHit reports whether the graph came from the pool.
	CacheHit bool `json:"cache_hit"`
	// Cached reports that the result was served from the persistent
	// result store instead of being executed: the job never touched the
	// worker pool, and the timing fields below are zero (the store records
	// the deterministic projection of a result — see CanonicalResult).
	Cached bool `json:"cached,omitempty"`
	// ElapsedMS is the job's execution wall time in milliseconds.
	ElapsedMS int64 `json:"elapsed_ms"`
	// QueueMS is how long the job waited between submission and the start
	// of execution, in milliseconds.
	QueueMS int64 `json:"queue_ms"`
	// RoundsPerSec is the executed protocol rounds divided by the
	// execution wall time (0 when the job finished under the timer
	// resolution).
	RoundsPerSec float64 `json:"rounds_per_sec"`
	// Reports lists the per-trial outcomes in trial order.
	Reports []TrialReport `json:"reports"`
}

// Job states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// JobView is the externally visible snapshot of a job, returned by the
// submit, get, and list endpoints.
type JobView struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Sweep is the owning sweep ID for runs expanded from a sweep grid.
	Sweep   string     `json:"sweep,omitempty"`
	Request RunRequest `json:"request"`
	// Error is set for failed jobs.
	Error string `json:"error,omitempty"`
	// Result is set for done jobs.
	Result   *RunResult `json:"result,omitempty"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started,omitempty"`
	Finished *time.Time `json:"finished,omitempty"`
}

// Stats is the GET /v1/stats payload.
type Stats struct {
	// Job counters.
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Cancelled int64 `json:"cancelled"`
	Rejected  int64 `json:"rejected"`
	Queued    int   `json:"queued"`
	Running   int   `json:"running"`
	// TrialsRun is the total number of protocol runs executed.
	TrialsRun int64 `json:"trials_run"`
	// RoundsRun is the total number of protocol rounds executed.
	RoundsRun int64 `json:"rounds_run"`
	// JobsMeanField and JobsGeneral split executed jobs by the round
	// engine that ran them; JobsCached counts jobs answered from the
	// persistent result store without executing (counted in Completed,
	// absent from the engine split and from TrialsRun/RoundsRun).
	JobsMeanField int64 `json:"jobs_mean_field"`
	JobsGeneral   int64 `json:"jobs_general"`
	JobsCached    int64 `json:"jobs_cached"`
	// JobsByVariant splits executed jobs by the opinion dynamic that ran
	// them ("sync", "async", "stubborn", "plurality"). Like the engine
	// split, cached jobs are not counted. Absent until the first job
	// executes.
	JobsByVariant map[string]int64 `json:"jobs_by_variant,omitempty"`
	// Sweep counters. SweepCellsFinished counts child runs that reached a
	// terminal state (done, failed, or cancelled).
	SweepsSubmitted    int64 `json:"sweeps_submitted"`
	SweepsCompleted    int64 `json:"sweeps_completed"`
	SweepsCancelled    int64 `json:"sweeps_cancelled"`
	SweepsRejected     int64 `json:"sweeps_rejected"`
	SweepsActive       int   `json:"sweeps_active"`
	SweepCellsFinished int64 `json:"sweep_cells_finished"`
	// CellsCached counts sweep cells answered from the persistent result
	// store without executing (a resumed sweep's pre-crash cells, a
	// repeated grid's entire expansion, or cells a fleet peer computed
	// first).
	CellsCached int64 `json:"cells_cached"`
	// WorkerID is this process's fleet identity; empty outside fleet mode.
	WorkerID string `json:"worker_id,omitempty"`
	// Cache is the graph-pool snapshot.
	Cache CacheStats `json:"graph_cache"`
	// ArtifactsEnabled reports whether a disk artifact directory is
	// attached (-artifact-dir); GraphsArtifactHits counts graph-pool
	// misses served by loading a preprocessed artifact from it, and
	// GraphsArtifactMisses counts CSR builds that found no artifact and
	// wrote one through. Both stay zero without a directory.
	ArtifactsEnabled     bool  `json:"artifacts_enabled,omitempty"`
	GraphsArtifactHits   int64 `json:"graphs_artifact_hits"`
	GraphsArtifactMisses int64 `json:"graphs_artifact_misses"`
	// ResultStore is the persistent result store's snapshot; absent when
	// the server runs without one (no -store-dir). StoreErrors counts
	// failed store writes (the affected jobs still completed normally;
	// they just were not recorded).
	ResultStore *store.Stats `json:"result_store,omitempty"`
	StoreErrors int64        `json:"store_errors,omitempty"`
	// Event-bus counters. EventsPublished counts frames accepted onto the
	// bus; EventsDropped counts per-subscriber ring overflows (slow /events
	// watchers shedding load — the publishing simulations were unaffected);
	// Subscribers is the number of currently attached event streams.
	EventsPublished int64 `json:"events_published"`
	EventsDropped   int64 `json:"events_dropped"`
	Subscribers     int   `json:"subscribers"`
	// UptimeSeconds counts from manager start.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Workers is the job-pool width.
	Workers int `json:"workers"`
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}
