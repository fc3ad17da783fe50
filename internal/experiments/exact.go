package experiments

// E20 validates the simulator against the exact Markov chain of the
// complete-graph dynamic; E21 compares the paper's density condition with
// the spectral condition of Cooper–Elsässer–Radzik–Rivera–Shiraga [5] that
// the introduction contrasts it against.

import (
	"fmt"
	"math"

	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/markov"
	"repro/internal/opinion"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/spec"
)

// E20Row is one (n, pBlue) point.
type E20Row struct {
	N              int
	PBlue          float64
	ExactRedWin    float64
	ExactMeanT     float64
	SimRedWin      stats.Proportion
	SimMeanT       float64
	WithinInterval bool
}

// E20Result validates simulation against the exact chain.
type E20Result struct {
	Rows []E20Row
}

// E20ExactChainValidation computes the exact red-win probability and mean
// absorption time of Best-of-Three on K_n (by iterating the full blue-count
// distribution) and checks the simulator lands inside the implied
// confidence band. This pins the simulator to ground truth with no
// asymptotics involved. Each point is one RunSpec through repro.Runner on
// the general per-vertex engine: the mean-field fast path samples the
// exact chain's own kernel and would make the validation circular (the
// fast path itself is pinned against both in internal/markov's engine
// tests).
func E20ExactChainValidation(cfg Config) E20Result {
	var res E20Result
	for i, c := range []struct {
		n     int
		pBlue float64
	}{{64, 0.40}, {64, 0.50}, {256, 0.45}, {256, 0.50}, {1024, 0.47}} {
		chain := markov.New(c.n, 3)
		abs := chain.Absorb(chain.InitialDistribution(c.pBlue), 1e-12, 4000)

		trials := cfg.Trials * 5
		rep := runSpec(cfg, spec.RunSpec{
			Graph:     spec.GraphSpec{Family: "complete-virtual", N: c.n},
			Delta:     0.5 - c.pBlue,
			Trials:    trials,
			MaxRounds: 4000,
			Seed:      rng.ChildSeed(cfg.Seed, uint64(i)),
			Engine:    "general",
		})
		// 99% intervals: a validation table with several rows should not flag
		// the expected one-in-twenty 95%-CI misses as disagreement.
		prop := stats.WilsonInterval(rep.RedWins, trials, 2.576)
		res.Rows = append(res.Rows, E20Row{
			N:              c.n,
			PBlue:          c.pBlue,
			ExactRedWin:    abs.RedWins,
			ExactMeanT:     abs.MeanRounds,
			SimRedWin:      prop,
			SimMeanT:       rep.MeanRounds,
			WithinInterval: prop.Lo <= abs.RedWins && abs.RedWins <= prop.Hi,
		})
	}
	return res
}

// AllWithinIntervals reports whether the exact value fell inside the
// simulation confidence interval at every point.
func (r E20Result) AllWithinIntervals() bool {
	for _, row := range r.Rows {
		if !row.WithinInterval {
			return false
		}
	}
	return true
}

// Table renders the result.
func (r E20Result) Table() *table.Table {
	t := table.New(
		"E20 (validation): exact K_n Markov chain vs simulator",
		"n", "P(blue)", "exact red win", "sim red win", "sim 99% CI", "exact mean T", "sim mean T", "agree")
	for _, row := range r.Rows {
		t.AddRow(row.N, row.PBlue, row.ExactRedWin, row.SimRedWin.P,
			fmt.Sprintf("[%.4f,%.4f]", row.SimRedWin.Lo, row.SimRedWin.Hi),
			row.ExactMeanT, row.SimMeanT, row.WithinInterval)
	}
	return t
}

// E21Row is one instance's condition check.
type E21Row struct {
	Graph           string
	N               int
	Alpha           float64
	Lambda2         float64
	DensityHolds    bool // the paper's condition (E10's gate)
	SpectralHolds   bool // d(R0) − d(B0) >= 4·λ2·d(V) for the E21 δ
	MeanRounds      float64
	RedWins         stats.Proportion
	PredictedByWhom string
}

// E21Result compares the two sufficient conditions from the literature.
type E21Result struct {
	Delta float64
	Rows  []E21Row
}

// E21SpectralComparison evaluates, on a spread of instances, the paper's
// density condition (min degree n^Ω(1/loglog n)) and the spectral condition
// of [5] (initial degree-weighted gap ≥ 4λ₂·d(V), for Best-of-2), then runs
// Best-of-Three to see which instances actually converge fast. The paper's
// point: the conditions are incomparable — dense graphs with tiny δ satisfy
// the density condition but not the Ω(n) gap; expanders with huge δ satisfy
// the spectral one at degrees the density condition rejects.
func E21SpectralComparison(cfg Config) E21Result {
	const delta = 0.05
	res := E21Result{Delta: delta}
	n := cfg.MaxN / 4 // λ2 estimation is O(iters·m); keep m moderate

	type inst struct {
		name  string
		build func(src *rng.Source) *graph.Graph
	}
	d1 := int(math.Ceil(math.Pow(float64(n), 0.6)))
	if (n*d1)%2 != 0 {
		d1++
	}
	instances := []inst{
		{"dense regular (n^0.6)", func(src *rng.Source) *graph.Graph { return graph.RandomRegular(n, d1, src) }},
		{"expander (d=16)", func(src *rng.Source) *graph.Graph { return graph.RandomRegular(n, 16, src) }},
		{"torus", func(src *rng.Source) *graph.Graph {
			side := int(math.Round(math.Sqrt(float64(n))))
			return graph.Torus2D(side, side)
		}},
		{"small world (beta=0.2)", func(src *rng.Source) *graph.Graph { return graph.WattsStrogatz(n, 4, 0.2, src) }},
	}

	for _, in := range instances {
		src := rng.New(cfg.Seed)
		g := in.build(src)
		l2 := g.SecondEigenvalue(150)

		// The spectral condition of [5] on the expected initial split:
		// d(R0) − d(B0) = 2δ·d(V) in expectation under i.i.d. opinions, so
		// it holds iff 2δ ≥ 4λ₂.
		spectral := 2*delta >= 4*l2
		alpha := g.DensityExponent()
		density := alpha >= 1/math.Log(math.Log(float64(g.N())))

		outs := sim.RunOutcomes(cfg.Trials, cfg.Seed+uint64(len(res.Rows)), cfg.Workers, func(i int, s *rng.Source) sim.Outcome {
			gg := in.build(s)
			init := opinion.RandomConfig(gg.N(), 0.5-delta, s)
			p, err := dynamics.New(gg, dynamics.BestOfThree, init, dynamics.Options{Seed: s.Uint64()})
			if err != nil {
				panic(err)
			}
			r := run(p, maxRounds)
			return sim.Outcome{Rounds: float64(r.Rounds), Win: r.Consensus && r.Winner == opinion.Red}
		})

		who := "neither"
		switch {
		case density && spectral:
			who = "both"
		case density:
			who = "density (paper)"
		case spectral:
			who = "spectral [5]"
		}
		res.Rows = append(res.Rows, E21Row{
			Graph:           in.name,
			N:               g.N(),
			Alpha:           alpha,
			Lambda2:         l2,
			DensityHolds:    density,
			SpectralHolds:   spectral,
			MeanRounds:      stats.Summarize(sim.RoundsOf(outs)).Mean,
			RedWins:         stats.WilsonInterval(sim.Wins(outs), len(outs), 1.96),
			PredictedByWhom: who,
		})
	}
	return res
}

// Table renders the result.
func (r E21Result) Table() *table.Table {
	t := table.New(
		fmt.Sprintf("E21 (paper vs ref [5]): which sufficient condition covers which instance, delta=%.2f", r.Delta),
		"graph", "n", "alpha", "lambda2", "covered by", "mean rounds", "red wins")
	for _, row := range r.Rows {
		t.AddRow(row.Graph, row.N, row.Alpha, row.Lambda2, row.PredictedByWhom, row.MeanRounds, row.RedWins.P)
	}
	return t
}
