// Package experiments implements the reproduction suite: one experiment per
// quantitative claim of the paper (see DESIGN.md's per-experiment index).
// Each experiment is a pure function of a Config and returns both the
// structured measurements and a rendered table, so the same code backs the
// cmd/bo3sweep CLI, the root-level benchmarks, and EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/opinion"
	"repro/internal/rng"
	"repro/internal/sim"
)

// Config scales an experiment. The zero value is not valid; use Default or
// Quick.
type Config struct {
	// Trials is the number of independent repetitions per parameter point.
	Trials int
	// MaxN caps the largest graph size used in sweeps.
	MaxN int
	// Workers bounds harness parallelism (0 = GOMAXPROCS).
	Workers int
	// Seed drives all randomness; fixed seed = identical tables.
	Seed uint64
}

// Default is the configuration used for EXPERIMENTS.md (minutes of CPU on
// a single core).
func Default() Config { return Config{Trials: 40, MaxN: 1 << 13, Seed: 1} }

// Quick is a reduced configuration for benchmarks and smoke tests
// (sub-second per experiment).
func Quick() Config { return Config{Trials: 12, MaxN: 1 << 11, Seed: 1} }

// maxRounds is the per-trial round budget: far above any double-log
// prediction, so hitting it signals non-convergence rather than truncation.
const maxRounds = 4000

// GraphKind selects a topology family for the dynamics experiments.
type GraphKind int

const (
	// KindRegular is a random d-regular graph with d = n^alpha.
	KindRegular GraphKind = iota
	// KindGnp is an Erdős–Rényi graph with p = n^(alpha-1).
	KindGnp
	// KindComplete is the (virtual) complete graph.
	KindComplete
	// KindTorus is the 2D torus (constant degree 4): outside the paper's
	// dense class; used by the density-gate experiment.
	KindTorus
	// KindCycle is the n-cycle (constant degree 2).
	KindCycle
	// KindHypercube is the log n-degree hypercube.
	KindHypercube
)

// String implements fmt.Stringer.
func (k GraphKind) String() string {
	switch k {
	case KindRegular:
		return "regular"
	case KindGnp:
		return "gnp"
	case KindComplete:
		return "complete"
	case KindTorus:
		return "torus"
	case KindCycle:
		return "cycle"
	case KindHypercube:
		return "hypercube"
	default:
		return fmt.Sprintf("GraphKind(%d)", int(k))
	}
}

// makeGraph builds a family member with n vertices and density exponent
// alpha (ignored by the constant-degree and complete families). The
// returned topology satisfies dynamics.Topology.
func makeGraph(kind GraphKind, n int, alpha float64, src *rng.Source) dynamics.Topology {
	switch kind {
	case KindRegular:
		d := int(math.Ceil(math.Pow(float64(n), alpha)))
		if d >= n {
			return graph.NewKn(n)
		}
		if (n*d)%2 != 0 {
			d++
		}
		if d >= n {
			return graph.NewKn(n)
		}
		return graph.RandomRegular(n, d, src)
	case KindGnp:
		p := math.Pow(float64(n), alpha-1)
		// Keep expected min degree comfortably positive: p >= 8 ln n / n.
		if min := 8 * math.Log(float64(n)) / float64(n); p < min {
			p = min
		}
		for {
			g := graph.Gnp(n, p, src)
			if g.MinDegree() > 0 {
				return g
			}
		}
	case KindComplete:
		return graph.NewKn(n)
	case KindTorus:
		side := int(math.Round(math.Sqrt(float64(n))))
		if side < 3 {
			side = 3
		}
		return graph.Torus2D(side, side)
	case KindCycle:
		if n < 3 {
			n = 3
		}
		return graph.Cycle(n)
	case KindHypercube:
		dim := int(math.Round(math.Log2(float64(n))))
		if dim < 2 {
			dim = 2
		}
		return graph.Hypercube(dim)
	default:
		panic(fmt.Sprintf("experiments: unknown graph kind %d", int(kind)))
	}
}

// run drives p through dynamics.Run with no deadline and no observer; a
// background context never cancels, so the loop cannot fail.
func run(p dynamics.Dynamic, maxRounds int) dynamics.Result {
	res, _ := dynamics.Run(context.Background(), p, maxRounds, nil)
	return res
}

// runConsensusTrials measures Best-of-k consensus on fresh graphs: each
// trial generates its own graph (for random families), draws the initial
// configuration with P(blue) = 1/2 − δ, and runs to consensus or the round
// budget. The Outcome's Rounds is the consensus time (maxRounds when the
// budget is exhausted) and Win reports red consensus.
func runConsensusTrials(cfg Config, kind GraphKind, n int, alpha, delta float64, rule dynamics.Rule, budget int) []sim.Outcome {
	if budget <= 0 {
		budget = maxRounds
	}
	return sim.RunOutcomes(cfg.Trials, cfg.Seed, cfg.Workers, func(i int, src *rng.Source) sim.Outcome {
		g := makeGraph(kind, n, alpha, src)
		init := opinion.RandomConfig(g.N(), 0.5-delta, src)
		p, err := dynamics.New(g, rule, init, dynamics.Options{Seed: src.Uint64(), Workers: 1})
		if err != nil {
			panic(err) // experiment configs are validated by construction
		}
		res := run(p, budget)
		return sim.Outcome{
			Rounds: float64(res.Rounds),
			Win:    res.Consensus && res.Winner == opinion.Red,
		}
	})
}
