// Package repro is a from-scratch Go reproduction of "Best-of-Three Voting
// on Dense Graphs" (Nan Kang and Nicolás Rivera, SPAA 2019,
// arXiv:1903.09524).
//
// The paper studies the synchronous Best-of-Three opinion dynamic: every
// vertex of a graph holds opinion Red or Blue, and in each round every
// vertex samples three random neighbours (with replacement) and adopts the
// majority opinion among the samples. The main theorem says that on any
// graph with minimum degree d = n^α, α = Ω(1/log log n), started from
// i.i.d. opinions with P(Blue) = 1/2 − δ and δ ≥ (log d)^−C, the dynamic
// reaches Red consensus within O(log log n) + O(log δ⁻¹) rounds with high
// probability.
//
// The root package exposes the high-level API. A run is described
// declaratively as a RunSpec (package spec, re-exported here) and executed
// by a Runner:
//
//	runner, err := repro.NewRunner(repro.RunSpec{
//		Graph:  repro.GraphSpec{Family: "random-regular", N: 1 << 14, D: 128, Seed: 1},
//		Delta:  0.05,
//		Trials: 8,
//		Seed:   2,
//	})
//	report, err := runner.Run(ctx)
//	// report.RedWins, report.MeanRounds, report.PredictedRounds, ...
//
// The same spec — serialised to JSON — is what `bo3sim -spec` runs and
// what `POST /v1/runs` on bo3serve accepts, with byte-identical per-trial
// outcomes across all three entry points: trial i always runs with
// rng.ChildSeed(Seed, i) on the same engine configuration. Runner.Stream
// delivers outcomes as trials complete; WithObserver taps per-round blue
// counts.
//
// Rounds execute on one of two engines behind an automatic dispatch seam
// (spec field "engine", default "auto"): complete-graph specs
// (complete-virtual) take a mean-field fast path that advances a round in
// O(1) — two binomial draws against the exact blue-count chain — while
// everything else runs the general per-vertex engine with batched sampling.
// "general" opts a spec out for A/B validation; docs/PERFORMANCE.md
// documents the architecture and the committed BENCH_engine.json baseline
// (regenerable with cmd/bo3bench).
//
// Underneath sit the substrates, each its own package under internal/:
// graph generators and analyses (internal/graph), the parallel Best-of-k
// engine and baselines (internal/dynamics), the voting-DAG dual object
// with the Sprinkling process and the ternary-tree lemmas
// (internal/votingdag), the paper's recursions in exact form
// (internal/theory), the COBRA walk of Remark 2 (internal/cobra), and the
// experiment harness (internal/sim, internal/experiments).
//
// Every quantitative claim of the paper has a reproduction experiment
// (E1–E21, catalogued in DESIGN.md), regenerable via cmd/bo3sweep or the
// benchmarks in bench_test.go; EXPERIMENTS.md records paper-vs-measured
// outcomes.
//
// The engine also runs as a long-lived service: cmd/bo3serve exposes
// simulation jobs over HTTP/JSON (internal/serve), executing them on a
// bounded worker pool with an LRU-cached graph pool and per-job seed
// derivation, so repeated sweeps over one topology skip the generator
// path while staying exactly reproducible. cmd/bo3sweep -serve replays a
// sweep through a running instance as a load test.
package repro
