package repro

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/sim"
	"repro/spec"
)

// Spec types, re-exported so callers can stay on the root import. The spec
// package is the single source of truth for run specification; these
// aliases are the same types.
type (
	// GraphSpec declaratively names a topology; see spec.GraphSpec.
	GraphSpec = spec.GraphSpec
	// RuleSpec declaratively selects a Best-of-k protocol; see
	// spec.RuleSpec.
	RuleSpec = spec.RuleSpec
	// RunSpec is the complete declarative description of a simulation job;
	// see spec.RunSpec.
	RunSpec = spec.RunSpec
	// Grid is a cross-product parameter grid expanding into RunSpecs; see
	// spec.Grid.
	Grid = spec.Grid
	// VariantSpec selects the opinion dynamic a RunSpec executes; see
	// spec.VariantSpec.
	VariantSpec = spec.VariantSpec
)

// RoundObserver receives one callback per recorded blue count of a trial:
// first (trial, 0, initial count), then once per executed round. Callbacks
// for one trial arrive in order on that trial's goroutine; distinct trials
// may interleave, so observers shared across trials must synchronise.
type RoundObserver func(trial, round, blueCount int)

// runnerConfig collects the functional options.
type runnerConfig struct {
	maxRounds int
	workers   int
	observer  RoundObserver
	topology  Topology
}

// RunnerOption configures a Runner.
type RunnerOption func(*runnerConfig)

// WithMaxRounds overrides the spec's per-trial round cap.
func WithMaxRounds(n int) RunnerOption { return func(c *runnerConfig) { c.maxRounds = n } }

// WithWorkers bounds how many trials execute concurrently (0 =
// GOMAXPROCS). Trial outcomes are independent of this setting: every trial
// draws only from its own seed stream.
func WithWorkers(n int) RunnerOption { return func(c *runnerConfig) { c.workers = n } }

// WithObserver streams per-round blue counts to fn as trials execute, e.g.
// to feed a live trace.
func WithObserver(fn RoundObserver) RunnerOption { return func(c *runnerConfig) { c.observer = fn } }

// WithTopology injects a pre-built topology instead of building one from
// the spec's GraphSpec — used by graph pools (the bo3serve cache) to share
// one immutable graph across many runners. The caller is responsible for
// the topology actually matching the spec.
func WithTopology(g Topology) RunnerOption { return func(c *runnerConfig) { c.topology = g } }

// Runner executes a RunSpec: Trials independent protocol runs, each with
// the deterministic seed spec.TrialSeed(i), fanned out over a worker pool.
// A Runner is immutable after construction and safe for concurrent use;
// Run and Stream may be called any number of times and always produce the
// same outcomes.
type Runner struct {
	spec   RunSpec
	rule   dynamics.Rule
	engine dynamics.Engine
	cfg    runnerConfig

	buildOnce sync.Once
	g         Topology
	buildErr  error
}

// NewRunner validates the spec, applies the options, and returns a Runner.
// The spec is normalised (Trials 0 → 1) and captured by value; later
// mutation of the caller's copy has no effect.
func NewRunner(s RunSpec, opts ...RunnerOption) (*Runner, error) {
	var cfg runnerConfig
	for _, o := range opts {
		o(&cfg)
	}
	s.Normalize()
	if cfg.maxRounds > 0 {
		s.MaxRounds = cfg.maxRounds
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rule, err := s.DynamicsRule()
	if err != nil {
		return nil, err
	}
	engine, err := s.EngineMode()
	if err != nil {
		return nil, err
	}
	r := &Runner{spec: s, rule: rule, engine: engine, cfg: cfg}
	if cfg.topology != nil {
		r.buildOnce.Do(func() { r.g = cfg.topology })
	}
	return r, nil
}

// Spec returns the normalised spec the runner executes.
func (r *Runner) Spec() RunSpec { return r.spec }

// Topology returns the graph the runner executes on, building it from the
// spec on first use (memoised; a build error is returned on every call).
func (r *Runner) Topology() (Topology, error) {
	r.buildOnce.Do(func() { r.g, r.buildErr = r.spec.Build() })
	return r.g, r.buildErr
}

// EngineName reports the resolved round engine ("general" or
// "mean-field") the runner's trials execute on, building the topology if
// needed. The serve layer records it per job. Non-sync variants always run
// per-vertex sampling, so they resolve to "general" without a build.
func (r *Runner) EngineName() (string, error) {
	if r.spec.VariantName() != "sync" {
		return "general", nil
	}
	g, err := r.Topology()
	if err != nil {
		return "", err
	}
	return core.EngineFor(g, r.engine), nil
}

// VariantName reports the resolved dynamic the runner's trials execute
// ("sync", "async", "stubborn", or "plurality").
func (r *Runner) VariantName() string { return r.spec.VariantName() }

// TrialResult is one trial's outcome as delivered by Stream.
type TrialResult struct {
	// Trial is the trial index in [0, Trials).
	Trial int
	// Seed is the trial's derived seed, spec.TrialSeed(Trial).
	Seed uint64
	// Report is the full per-trial report (trajectory included).
	Report Report
	// Err is non-nil if the trial failed or was cancelled mid-run.
	Err error
}

// Stream starts the trials and returns a channel delivering each outcome
// as it completes — callers consume results while later trials are still
// running, instead of waiting for the full slice. Delivery order follows
// completion, not trial index; the Trial field identifies each result.
// Every claimed trial delivers exactly one result and the channel is then
// closed, so callers MUST drain the channel until it closes (abandoning it
// early leaks the worker goroutines). Cancelling ctx stops new trials from
// being claimed and aborts in-flight trials at their next round boundary
// (those deliver a result with Err = ctx.Err()), making the drain prompt.
func (r *Runner) Stream(ctx context.Context) (<-chan TrialResult, error) {
	g, err := r.Topology()
	if err != nil {
		return nil, err
	}
	out := make(chan TrialResult)
	go func() {
		defer close(out)
		sim.Each(ctx, r.spec.Trials, r.cfg.workers, func(i int) {
			// The send is deliberately unconditional: a claimed trial's
			// result is never dropped, even when ctx is cancelled
			// mid-delivery — racing the send against ctx.Done() would
			// silently lose completed trials from a consumer that is still
			// draining.
			out <- r.runTrial(ctx, g, i)
		})
	}()
	return out, nil
}

// runTrial executes one trial with its derived seed. Each trial runs its
// engine on one goroutine from one RNG stream, so its trajectory is a
// function of the spec alone — the property the CLI/server equivalence
// guarantees rest on; parallelism comes from running trials concurrently.
func (r *Runner) runTrial(ctx context.Context, g Topology, i int) TrialResult {
	seed := r.spec.TrialSeed(i)
	opt := core.Options{
		Seed:      seed,
		MaxRounds: r.spec.MaxRounds,
		Rule:      r.rule,
		Engine:    r.engine,
		Variant:   r.spec.CoreVariant(),
	}
	if obs := r.cfg.observer; obs != nil {
		opt.OnRound = func(round, blues int) { obs(i, round, blues) }
	}
	rep, err := core.Run(ctx, g, r.spec.Delta, opt)
	return TrialResult{Trial: i, Seed: seed, Report: rep, Err: err}
}

// TrialOutcome is the compact per-trial summary carried by RunReport, in
// the same shape the bo3serve wire format uses.
type TrialOutcome struct {
	Trial     int    `json:"trial"`
	Seed      uint64 `json:"seed"`
	RedWon    bool   `json:"red_won"`
	Consensus bool   `json:"consensus"`
	Rounds    int    `json:"rounds"`
}

// RunReport aggregates a completed run: per-trial outcomes in trial order
// plus summary statistics. Outcomes are a deterministic function of the
// spec (the Runner's execution options never change them).
type RunReport struct {
	// Spec is the normalised spec that produced the report.
	Spec RunSpec `json:"spec"`
	// Outcomes lists the per-trial summaries in trial order.
	Outcomes []TrialOutcome `json:"outcomes"`
	// RedWins and ConsensusCount count trials won by the initial majority
	// and trials reaching a monochromatic state.
	RedWins        int `json:"red_wins"`
	ConsensusCount int `json:"consensus"`
	// MeanRounds and MaxRounds summarise the per-trial round counts.
	MeanRounds float64 `json:"mean_rounds"`
	MaxRounds  int     `json:"max_rounds"`
	// PredictedRounds is the Theorem 1 estimate for the instance, and
	// Precondition the hypothesis diagnostics.
	PredictedRounds int          `json:"predicted_rounds"`
	Precondition    Precondition `json:"precondition"`
	// GraphName and RuleName identify the resolved instance.
	GraphName string `json:"graph_name"`
	RuleName  string `json:"rule"`
	// Reports holds the full per-trial reports (trajectories included) in
	// trial order; omitted from JSON for size.
	Reports []Report `json:"-"`
}

// Run executes every trial and returns the aggregated report. On
// cancellation or a trial error the first error is returned (partial
// results are discarded); use Stream to consume what completes.
func (r *Runner) Run(ctx context.Context) (*RunReport, error) {
	stream, err := r.Stream(ctx)
	if err != nil {
		return nil, err
	}
	rep := &RunReport{
		Spec:     r.spec,
		Outcomes: make([]TrialOutcome, r.spec.Trials),
		Reports:  make([]Report, r.spec.Trials),
		RuleName: r.rule.Name(),
	}
	var firstErr error
	for res := range stream {
		if res.Err != nil {
			if firstErr == nil {
				firstErr = res.Err
			}
			continue
		}
		rep.Reports[res.Trial] = res.Report
		rep.Outcomes[res.Trial] = TrialOutcome{
			Trial:     res.Trial,
			Seed:      res.Seed,
			RedWon:    res.Report.RedWon,
			Consensus: res.Report.Consensus,
			Rounds:    res.Report.Rounds,
		}
	}
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	var tl sim.Tally
	for _, o := range rep.Outcomes {
		tl.Add(o.Rounds, o.RedWon, o.Consensus)
	}
	rep.RedWins = tl.Wins
	rep.ConsensusCount = tl.Consensus
	rep.MeanRounds = tl.MeanRounds()
	rep.MaxRounds = tl.MaxRounds
	rep.PredictedRounds = rep.Reports[0].PredictedRounds
	rep.Precondition = rep.Reports[0].Precondition
	g, _ := r.Topology()
	rep.GraphName = g.Name()
	return rep, nil
}
