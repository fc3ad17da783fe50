package experiments

// E17 verifies the central identity of Section 2 — P(ξ_T(v₀) = B) =
// P(X_H(v₀, T) = B) — by estimating both sides independently: the left by
// running the forward dynamic T rounds and reading vertex v₀'s opinion,
// the right by building the random voting-DAG of height T and running the
// colouring process. E18 contrasts the synchronous dynamic with the
// asynchronous (sequential-activation) variant. E19 sweeps communication
// noise, an extension of the protocol beyond the paper.

import (
	"fmt"
	"math"

	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/opinion"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/votingdag"
)

// E17Row compares the two estimators at one height.
type E17Row struct {
	T          int
	Forward    stats.Proportion // P(ξ_T(v0) = Blue) by forward simulation
	Backward   stats.Proportion // P(root Blue) by DAG colouring
	Compatible bool             // overlapping 95% intervals
}

// E17Result is the forward/backward duality experiment.
type E17Result struct {
	N, D  int
	Delta float64
	Rows  []E17Row
}

// E17ForwardBackwardDuality estimates the blue probability of a tagged
// vertex after T rounds both ways. The identity is exact (the DAG is the
// dependency structure of the forward process), so the two Monte Carlo
// estimates must agree within confidence intervals at every height.
func E17ForwardBackwardDuality(cfg Config) E17Result {
	n := cfg.MaxN / 2
	d := int(math.Ceil(math.Pow(float64(n), 0.6)))
	if (n*d)%2 != 0 {
		d++
	}
	const delta = 0.1
	src := rng.New(cfg.Seed)
	g := graph.RandomRegular(n, d, src)
	res := E17Result{N: n, D: d, Delta: delta}

	trials := cfg.Trials * 25
	for _, T := range []int{1, 2, 3, 4} {
		fwd := sim.RunOutcomes(trials, cfg.Seed^uint64(100+T), cfg.Workers, func(i int, s *rng.Source) sim.Outcome {
			init := opinion.RandomConfig(n, 0.5-delta, s)
			p, err := dynamics.New(g, dynamics.BestOfThree, init, dynamics.Options{Seed: s.Uint64()})
			if err != nil {
				panic(err)
			}
			for t := 0; t < T; t++ {
				p.Step()
			}
			return sim.Outcome{Win: p.Config().Get(0) == opinion.Blue}
		})
		bwd := sim.RunOutcomes(trials, cfg.Seed^uint64(200+T), cfg.Workers, func(i int, s *rng.Source) sim.Outcome {
			dag := votingdag.Build(g, 0, T, s)
			leaf := votingdag.RandomLeafColouring(0.5-delta, s)
			return sim.Outcome{Win: dag.Colour(leaf).RootColour() == opinion.Blue}
		})
		f := stats.WilsonInterval(sim.Wins(fwd), trials, 1.96)
		bk := stats.WilsonInterval(sim.Wins(bwd), trials, 1.96)
		res.Rows = append(res.Rows, E17Row{
			T:          T,
			Forward:    f,
			Backward:   bk,
			Compatible: f.Lo <= bk.Hi && bk.Lo <= f.Hi,
		})
	}
	return res
}

// AllCompatible reports whether the two estimators agreed at every height.
func (r E17Result) AllCompatible() bool {
	for _, row := range r.Rows {
		if !row.Compatible {
			return false
		}
	}
	return true
}

// Table renders the result.
func (r E17Result) Table() *table.Table {
	t := table.New(
		fmt.Sprintf("E17 (Section 2 identity): forward P(xi_T(v)=B) vs voting-DAG root, regular n=%d d=%d", r.N, r.D),
		"T", "forward P(B)", "forward CI", "DAG P(B)", "DAG CI", "compatible")
	for _, row := range r.Rows {
		t.AddRow(row.T, row.Forward.P,
			fmt.Sprintf("[%.4f,%.4f]", row.Forward.Lo, row.Forward.Hi),
			row.Backward.P,
			fmt.Sprintf("[%.4f,%.4f]", row.Backward.Lo, row.Backward.Hi),
			row.Compatible)
	}
	return t
}

// E18Row is one (δ, activation model) cell.
type E18Row struct {
	Delta      float64
	Model      string
	MeanRounds float64 // synchronous rounds / asynchronous sweeps
	RedWins    stats.Proportion
}

// E18Result contrasts synchronous rounds with asynchronous sweeps.
type E18Result struct {
	Graph string
	Rows  []E18Row
}

// E18AsyncVsSync runs the E18 registry grid: Best-of-Three under both
// activation models on the same dense instance, at each δ. One
// asynchronous sweep (n single-vertex updates) plays the role of one
// synchronous round; the asynchronous variant is expected to be in the
// same double-log regime, with a modest constant penalty because late
// updaters see a mix of old and new opinions.
func E18AsyncVsSync(cfg Config) E18Result {
	var res E18Result
	for _, rep := range runSweep(cfg, "E18") {
		res.Graph = rep.GraphName
		res.Rows = append(res.Rows, E18Row{
			Delta:      rep.Spec.Delta,
			Model:      rep.Spec.VariantName(),
			MeanRounds: rep.MeanRounds,
			RedWins:    redWins(rep),
		})
	}
	return res
}

// Table renders the result.
func (r E18Result) Table() *table.Table {
	t := table.New(
		fmt.Sprintf("E18 (extension): activation models on %s", r.Graph),
		"delta", "model", "mean rounds/sweeps", "red wins")
	for _, row := range r.Rows {
		t.AddRow(row.Delta, row.Model, row.MeanRounds, row.RedWins.P)
	}
	return t
}

// E19Row is one (graph, dynamic, noise) cell.
type E19Row struct {
	Graph         string
	Model         string
	Noise         float64
	FinalBlueFrac float64 // mean blue fraction when the run stopped
	RedDominates  stats.Proportion
}

// E19Result is the communication-noise experiment.
type E19Result struct {
	Delta     float64
	MaxRounds int
	Rows      []E19Row
}

// E19NoiseThreshold runs the E19 registry grid, sweeping the per-sample
// misreporting probability on the complete and a regular graph under both
// activation models. The noiseless dynamic drives blue mass to 0; with
// noise η the all-red state leaks ~3η²(1−η) blue per vertex per round, so
// the blue mass when the run stops (consensus or the row's round cap)
// grows with η, and past η = 1/6 — where the noisy mean-field map
// b ↦ maj₃((1−η)b + η(1−b)) is left with 1/2 as its only stable fixed
// point — it settles at 1/2.
func E19NoiseThreshold(cfg Config) E19Result {
	var res E19Result
	for _, rep := range runSweep(cfg, "E19") {
		finals := finalBlue(rep)
		res.Delta, res.MaxRounds = rep.Spec.Delta, rep.Spec.MaxRounds
		res.Rows = append(res.Rows, E19Row{
			Graph:         rep.GraphName,
			Model:         rep.Spec.VariantName(),
			Noise:         rep.Spec.Rule.Noise,
			FinalBlueFrac: stats.Summarize(finals).Mean,
			RedDominates:  shareBelow(finals, 0.25),
		})
	}
	return res
}

// Table renders the result.
func (r E19Result) Table() *table.Table {
	t := table.New(
		fmt.Sprintf("E19 (extension): per-sample noise, delta=%.2f, %d-round cap", r.Delta, r.MaxRounds),
		"graph", "model", "noise", "final blue frac", "red dominates (<25% blue)")
	for _, row := range r.Rows {
		t.AddRow(row.Graph, row.Model, row.Noise, row.FinalBlueFrac, row.RedDominates.P)
	}
	return t
}
