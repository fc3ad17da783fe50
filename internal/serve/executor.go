package serve

import (
	"context"
	"time"

	"repro"
	"repro/internal/core"
)

// executeSpec runs one spec (effective seed already applied) through the
// shared repro.Runner and folds the trial stream into a RunResult. g, when
// non-nil, is a pre-built topology (the manager's graph pool); nil lets
// the Runner build it. workers > 0 sets trial parallelism — it never
// changes outcomes, only wall time. obs, when non-nil, observes every
// recorded blue count (the manager installs the event bus's decimated
// trajectory publisher here); observation never changes outcomes either.
func executeSpec(ctx context.Context, runSpec RunRequest, g core.Topology, workers int, obs repro.RoundObserver) (*RunResult, error) {
	// Each trial runs a sequential engine on one RNG stream, which is what
	// makes outcomes byte-identical to the same spec run through the
	// library or bo3sim; a job's only parallelism is across its trials.
	opts := []repro.RunnerOption{}
	if g != nil {
		opts = append(opts, repro.WithTopology(g))
	}
	if workers > 0 {
		opts = append(opts, repro.WithWorkers(workers))
	}
	if obs != nil {
		opts = append(opts, repro.WithObserver(obs))
	}
	runner, err := repro.NewRunner(runSpec, opts...)
	if err != nil {
		return nil, err
	}
	runSpec = runner.Spec()
	topo, err := runner.Topology()
	if err != nil {
		return nil, err
	}

	// Consume the trial stream rather than the aggregate report: each
	// trial's trajectory is dropped as soon as its summary is recorded, so
	// a max-size job holds O(workers) trajectories in memory, not all of
	// them at once.
	start := time.Now()
	stream, err := runner.Stream(ctx)
	if err != nil {
		return nil, err
	}
	reports := make([]TrialReport, runSpec.Trials)
	var firstErr error
	var predicted int
	var pre string
	var preOK bool
	for tr := range stream {
		if tr.Err != nil {
			if firstErr == nil {
				firstErr = tr.Err
			}
			continue
		}
		reports[tr.Trial] = TrialReport{RedWon: tr.Report.RedWon, Consensus: tr.Report.Consensus, Rounds: tr.Report.Rounds}
		// Instance-level diagnostics are identical across trials; keep one.
		predicted = tr.Report.PredictedRounds
		pre = tr.Report.Precondition.String()
		preOK = tr.Report.Precondition.Satisfied()
	}
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	if firstErr != nil {
		return nil, firstErr
	}
	rule, err := runSpec.DynamicsRule()
	if err != nil {
		return nil, err
	}
	engine, err := runner.EngineName()
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)
	res := &RunResult{
		Trials:          runSpec.Trials,
		PredictedRounds: predicted,
		Precondition:    pre,
		PreconditionOK:  preOK,
		Seed:            runSpec.Seed,
		GraphName:       topo.Name(),
		Rule:            rule.Name(),
		Engine:          engine,
		ElapsedMS:       elapsed.Milliseconds(),
		Reports:         reports,
	}
	if v := runner.VariantName(); v != "sync" {
		// The sync default is omitted (omitempty) so plain-run results —
		// and every pre-variant store record — keep their exact bytes.
		res.Variant = v
	}
	tl := tallyReports(reports)
	res.RedWins = tl.Wins
	res.Consensus = tl.Consensus
	res.MeanRounds = tl.MeanRounds()
	res.MaxRounds = tl.MaxRounds
	if secs := elapsed.Seconds(); secs > 0 {
		res.RoundsPerSec = float64(tl.RoundSum) / secs
	}
	return res, nil
}

// Execute runs a spec exactly as a bo3serve worker would — same Runner,
// same ChildSeed tree, same engines — and returns the deterministic
// result projection. It is the re-execution path behind `bo3store
// verify`: marshalling the returned result reproduces a stored record's
// body byte-for-byte. The spec must carry an explicit seed
// (stored canonical specs always do).
func Execute(ctx context.Context, req RunRequest) (*RunResult, error) {
	req.Normalize()
	if err := req.Validate(); err != nil {
		return nil, err
	}
	res, err := executeSpec(ctx, req, nil, 0, nil)
	if err != nil {
		return nil, err
	}
	*res = CanonicalResult(*res)
	return res, nil
}

// CanonicalResult is the deterministic projection of a result: the
// load-dependent observables — timings, throughput, cache and store
// provenance — zeroed, leaving exactly the fields that are pure functions
// of the canonical spec. The result store records this projection, which
// is what makes both the memoised submit path and `bo3store verify`'s
// byte-for-byte comparison sound.
func CanonicalResult(r RunResult) RunResult {
	r.CacheHit = false
	r.Cached = false
	r.ElapsedMS = 0
	r.QueueMS = 0
	r.RoundsPerSec = 0
	return r
}
