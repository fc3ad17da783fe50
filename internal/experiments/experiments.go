// Package experiments implements the reproduction suite: one experiment per
// quantitative claim of the paper (see DESIGN.md's per-experiment index).
// Each experiment is a pure function of a Config and returns both the
// structured measurements and a rendered table, so the same code backs the
// cmd/bo3sweep CLI, the root-level benchmarks, and EXPERIMENTS.md.
//
// Rows that sweep the forward dynamic over spec-describable cells take
// their cells from Grids — the one definition bo3serve replays — and run
// them through repro.Runner, the Runner POST /v1/sweeps uses; the
// complete-graph trajectory rows run one RunSpec each through the same
// Runner. Only rows that need a non-i.i.d. start, one vertex's opinion, or
// graphs outside the spec registry (E16, E17, E21) drive the engine
// directly.
package experiments

import (
	"context"

	"repro"
	"repro/internal/dynamics"
	"repro/internal/stats"
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

// maxRounds is the per-trial round budget of the directly driven rows: far
// above any double-log prediction, so hitting it signals non-convergence
// rather than truncation.
const maxRounds = 4000

// run drives p through dynamics.Run with no deadline and no observer; a
// background context never cancels, so the loop cannot fail.
func run(p dynamics.Dynamic, maxRounds int) dynamics.Result {
	res, _ := dynamics.Run(context.Background(), p, maxRounds, nil)
	return res
}

// redWins is the 95% Wilson interval of a report's red-win rate.
func redWins(rep *repro.RunReport) stats.Proportion {
	return stats.WilsonInterval(rep.RedWins, len(rep.Outcomes), 1.96)
}

// consensusFraction is the share of a report's trials that reached
// consensus within the round cap.
func consensusFraction(rep *repro.RunReport) float64 {
	return float64(rep.ConsensusCount) / float64(len(rep.Outcomes))
}

// finalBlue returns each trial's blue fraction when its run stopped: at
// consensus or at the spec's round cap.
func finalBlue(rep *repro.RunReport) []float64 {
	out := make([]float64, len(rep.Reports))
	for i, r := range rep.Reports {
		out[i] = float64(r.BlueTrajectory[len(r.BlueTrajectory)-1]) / float64(rep.Precondition.N)
	}
	return out
}

// shareBelow is the 95% Wilson interval of the fraction of xs below limit.
func shareBelow(xs []float64, limit float64) stats.Proportion {
	k := 0
	for _, x := range xs {
		if x < limit {
			k++
		}
	}
	return stats.WilsonInterval(k, len(xs), 1.96)
}
