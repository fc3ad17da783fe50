// Package core is the high-level facade over the paper's machinery: run
// Best-of-Three voting on a graph, check whether Theorem 1's preconditions
// hold for the instance, and compare measured consensus time against the
// paper's prediction. The root package repro re-exports this API.
package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dynamics"
	"repro/internal/opinion"
	"repro/internal/theory"
)

// Topology is the neighbour-query interface shared with the dynamics
// engine.
type Topology = dynamics.Topology

// Report summarises one Best-of-Three run together with the paper's
// prediction for the instance.
type Report struct {
	// Consensus reports whether the run reached a monochromatic state
	// within the round budget.
	Consensus bool
	// RedWon reports whether the consensus (or final majority) is Red, the
	// initial majority colour.
	RedWon bool
	// Rounds is the number of rounds executed.
	Rounds int
	// PredictedRounds is the Theorem 1 estimate O(log log n + log δ⁻¹)
	// with the repository's explicit constants.
	PredictedRounds int
	// BlueTrajectory is the per-round blue count (index 0 = initial).
	BlueTrajectory []int
	// Precondition describes how the instance relates to Theorem 1's
	// hypotheses.
	Precondition Precondition
}

// Precondition is the result of checking Theorem 1's hypotheses on a
// concrete instance.
type Precondition struct {
	// N and MinDegree are the instance parameters.
	N, MinDegree int
	// Alpha is the density exponent log_n(MinDegree).
	Alpha float64
	// AlphaThreshold is the 1/log log n boundary the paper requires
	// α = Ω(·) of.
	AlphaThreshold float64
	// DenseEnough reports α ≥ AlphaThreshold.
	DenseEnough bool
	// Delta is the requested imbalance and DeltaThreshold the paper's
	// (log d)⁻¹ gate (C = 1).
	Delta, DeltaThreshold float64
	// ImbalanceEnough reports δ ≥ DeltaThreshold.
	ImbalanceEnough bool
	// NoiseFloor is the finite-size caveat 4/√n: below it the initial
	// sample itself may not carry a red majority, so "red wins w.h.p."
	// cannot be observed at this n regardless of the theorem.
	NoiseFloor float64
}

// Satisfied reports whether both hypotheses hold.
func (p Precondition) Satisfied() bool { return p.DenseEnough && p.ImbalanceEnough }

// String renders a one-line diagnostic.
func (p Precondition) String() string {
	return fmt.Sprintf("n=%d d=%d alpha=%.3f (>=%.3f: %v) delta=%.4f (>=%.4f: %v)",
		p.N, p.MinDegree, p.Alpha, p.AlphaThreshold, p.DenseEnough,
		p.Delta, p.DeltaThreshold, p.ImbalanceEnough)
}

// CheckPrecondition evaluates Theorem 1's hypotheses on the instance.
func CheckPrecondition(g Topology, delta float64) Precondition {
	n := g.N()
	d := g.MinDegree()
	p := Precondition{N: n, MinDegree: d, Delta: delta}
	if n < 3 || d < 1 {
		return p
	}
	p.Alpha = math.Log(float64(d)) / math.Log(float64(n))
	p.AlphaThreshold = theory.MinAlpha(n, 1)
	p.DenseEnough = p.Alpha >= p.AlphaThreshold
	// The paper allows δ ≥ (log d)^−C for any C > 0; C = 2 keeps the gate
	// meaningful at laptop-scale degrees (C = 1 would demand δ ≥ 0.18 at
	// d = 256, excluding instances the theorem plainly covers).
	p.DeltaThreshold = theory.MinDelta(float64(d), 2)
	p.ImbalanceEnough = delta >= p.DeltaThreshold
	p.NoiseFloor = 4 / math.Sqrt(float64(n))
	return p
}

// Options configures Run.
type Options struct {
	// Seed drives both the initial colouring and the protocol's sampling.
	Seed uint64
	// MaxRounds caps the run; 0 means a generous default derived from the
	// prediction.
	MaxRounds int
	// Rule overrides the protocol (zero value = Best-of-Three). Exposed so
	// the facade also serves the baseline protocols.
	Rule dynamics.Rule
	// Engine selects the round engine; the zero value (EngineAuto) takes
	// the O(1) mean-field fast path on eligible topologies (graph.Kn) and
	// the general engine otherwise. EngineGeneral forces the general
	// engine for A/B validation. Non-sync variants always run per-vertex
	// sampling and ignore this field; the spec registry rejects
	// EngineMeanField with one.
	Engine dynamics.Engine
	// Variant selects the dynamic (sync, async, stubborn, plurality); the
	// zero value is the paper's synchronous dynamic. See the Variant type.
	Variant Variant
	// OnRound, when non-nil, is invoked after every recorded blue count —
	// first with (0, initial count), then once per executed round — on the
	// goroutine driving the run. It must not retain the process.
	OnRound func(round, blueCount int)
}

// RoundBudget is the effective per-trial round cap Run enforces on the
// instance: MaxRounds when positive, otherwise the generous default
// derived from the Theorem 1 prediction. Exported so observers that
// decimate the round stream (the serve event bus, bo3sim -progress) can
// size their stride from the exact worst case before the first round.
func RoundBudget(g Topology, delta float64, maxRounds int) int {
	if maxRounds > 0 {
		return maxRounds
	}
	predicted := theory.PredictedRounds(g.N(), float64(g.MinDegree()), math.Max(delta, 1e-6))
	return 50*predicted + 1000
}

// Run initialises each vertex independently Blue with probability
// 1/2 − delta (Red otherwise; the variant decides the exact initial law),
// runs the protocol to consensus or the round budget through dynamics.Run,
// and returns the report with the Theorem 1 diagnostics. The context is
// checked between rounds: a cancelled run returns the partial report
// (trajectory up to the last completed round) together with ctx.Err().
func Run(ctx context.Context, g Topology, delta float64, opt Options) (Report, error) {
	if !(delta >= 0 && delta <= 0.5) {
		return Report{}, fmt.Errorf("core: delta = %v outside [0, 0.5]", delta)
	}
	rule := opt.Rule
	if rule.K == 0 {
		rule = dynamics.BestOfThree
	}
	proc, err := newProcess(g, delta, rule, opt)
	if err != nil {
		return Report{}, err
	}
	res, err := dynamics.Run(ctx, proc, RoundBudget(g, delta, opt.MaxRounds), opt.OnRound)
	return Report{
		Consensus:       res.Consensus,
		RedWon:          res.Winner == opinion.Red,
		Rounds:          res.Rounds,
		PredictedRounds: theory.PredictedRounds(g.N(), float64(g.MinDegree()), math.Max(delta, 1e-6)),
		BlueTrajectory:  res.BlueTrajectory,
		Precondition:    CheckPrecondition(g, delta),
	}, err
}

// EngineFor reports which engine a synchronous Run with the given engine
// mode executes on g: "general" or "mean-field". The serve layer records
// it per job.
func EngineFor(g Topology, e dynamics.Engine) string {
	return dynamics.ResolveEngine(e, g).String()
}
