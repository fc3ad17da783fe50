package experiments

import (
	"fmt"
	"math"

	"repro/internal/cobra"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/votingdag"
)

// E9Row is one protocol on one topology.
type E9Row struct {
	Rule        string
	Family      string
	Graph       string
	MeanRounds  float64
	RedWins     stats.Proportion
	ConsensusOK float64 // fraction of trials reaching consensus within the cap
}

// E9Result compares Best-of-1/2/3/5 on the same workloads.
type E9Result struct {
	Delta     float64
	MaxRounds int
	Rows      []E9Row
}

// E9BaselineComparison reproduces the introduction's comparison over the
// E9 registry grid: the voter model (Best-of-1) reaches consensus slowly
// and wins only in proportion to the initial share, while Best-of-2/3
// amplify the majority and converge in double-log time.
func E9BaselineComparison(cfg Config) E9Result {
	var res E9Result
	for _, rep := range runSweep(cfg, "E9") {
		res.Delta, res.MaxRounds = rep.Spec.Delta, rep.Spec.MaxRounds
		res.Rows = append(res.Rows, E9Row{
			Rule:        rep.RuleName,
			Family:      rep.Spec.Graph.Family,
			Graph:       rep.GraphName,
			MeanRounds:  rep.MeanRounds,
			RedWins:     redWins(rep),
			ConsensusOK: consensusFraction(rep),
		})
	}
	return res
}

// MeanRoundsFor returns the mean rounds of one (rule, family) row, or NaN.
func (r E9Result) MeanRoundsFor(rule, family string) float64 {
	for _, row := range r.Rows {
		if row.Rule == rule && row.Family == family {
			return row.MeanRounds
		}
	}
	return math.NaN()
}

// Table renders the result.
func (r E9Result) Table() *table.Table {
	t := table.New(
		fmt.Sprintf("E9 (baselines): protocol comparison at delta=%.2f, %d-round cap", r.Delta, r.MaxRounds),
		"protocol", "graph", "mean rounds", "red wins", "consensus frac")
	for _, row := range r.Rows {
		t.AddRow(row.Rule, row.Graph, row.MeanRounds, row.RedWins.P, row.ConsensusOK)
	}
	return t
}

// E10Row is one topology of the density-gate experiment.
type E10Row struct {
	Family     string
	Graph      string
	MinDegree  int
	Alpha      float64
	MeanRounds float64
	RedWins    stats.Proportion
	DenseClass bool // does the paper's density condition hold?
}

// E10Result is the density-gate experiment: Theorem 1's d = n^Ω(1/loglog n)
// requirement.
type E10Result struct {
	Delta float64
	Rows  []E10Row
}

// E10DensityGate runs the E10 registry grid: Best-of-Three at the same
// (n, δ) on graphs inside and outside the paper's dense class, classified
// by the instance's own precondition check. Dense graphs must finish in
// near-double-log rounds with red winning; constant-degree graphs converge
// much more slowly (and on the cycle, often to the wrong opinion locally —
// blue enclaves survive for a long time).
func E10DensityGate(cfg Config) E10Result {
	var res E10Result
	for _, rep := range runSweep(cfg, "E10") {
		pre := rep.Precondition
		res.Delta = rep.Spec.Delta
		res.Rows = append(res.Rows, E10Row{
			Family:     rep.Spec.Graph.Family,
			Graph:      rep.GraphName,
			MinDegree:  pre.MinDegree,
			Alpha:      pre.Alpha,
			MeanRounds: rep.MeanRounds,
			RedWins:    redWins(rep),
			DenseClass: pre.DenseEnough,
		})
	}
	return res
}

// Table renders the result.
func (r E10Result) Table() *table.Table {
	t := table.New(
		fmt.Sprintf("E10 (density gate): Best-of-3 inside vs outside the dense class, delta=%.2f", r.Delta),
		"graph", "min degree", "alpha", "mean rounds", "red wins", "in dense class")
	for _, row := range r.Rows {
		t.AddRow(row.Graph, row.MinDegree, row.Alpha, row.MeanRounds, row.RedWins.P, row.DenseClass)
	}
	return t
}

// E11Row is one time step of the duality comparison.
type E11Row struct {
	Step         int
	WalkMeanOcc  float64
	DAGMeanLevel float64
	RelError     float64
}

// E11Result is the Remark 2 duality experiment.
type E11Result struct {
	N, D int
	Rows []E11Row
}

// E11CobraDuality compares the mean occupancy trajectory of a k = 3 COBRA
// walk with the mean level sizes of voting-DAGs on the same graph: Remark 2
// says level T−t of the DAG is exactly the walk's occupied set at time t,
// so the distributions (hence means) must agree.
func E11CobraDuality(cfg Config) E11Result {
	n := cfg.MaxN
	alpha := 0.6
	d := int(math.Ceil(math.Pow(float64(n), alpha)))
	if (n*d)%2 != 0 {
		d++
	}
	src := rng.New(cfg.Seed)
	g := graph.RandomRegular(n, d, src)
	const T = 6
	trials := cfg.Trials * 5

	walkSum := make([]float64, T+1)
	dagSum := make([]float64, T+1)
	for i := 0; i < trials; i++ {
		s := rng.NewFrom(cfg.Seed, uint64(i))
		w := cobra.New(g, 3, []int{s.Intn(n)}, s)
		tr := w.Trajectory(T)
		dag := votingdag.Build(g, s.Intn(n), T, s)
		sizes := dag.LevelSizes()
		for t := 0; t <= T; t++ {
			walkSum[t] += float64(tr[t])
			dagSum[t] += float64(sizes[T-t])
		}
	}
	res := E11Result{N: n, D: d}
	for t := 0; t <= T; t++ {
		wm := walkSum[t] / float64(trials)
		dm := dagSum[t] / float64(trials)
		rel := 0.0
		if dm > 0 {
			rel = math.Abs(wm-dm) / dm
		}
		res.Rows = append(res.Rows, E11Row{Step: t, WalkMeanOcc: wm, DAGMeanLevel: dm, RelError: rel})
	}
	return res
}

// MaxRelError returns the worst relative disagreement across steps.
func (r E11Result) MaxRelError() float64 {
	max := 0.0
	for _, row := range r.Rows {
		if row.RelError > max {
			max = row.RelError
		}
	}
	return max
}

// Table renders the result.
func (r E11Result) Table() *table.Table {
	t := table.New(
		fmt.Sprintf("E11 (Remark 2): COBRA occupancy vs voting-DAG level sizes, regular n=%d d=%d", r.N, r.D),
		"step t", "walk mean occupancy", "DAG mean level size", "rel error")
	for _, row := range r.Rows {
		t.AddRow(row.Step, row.WalkMeanOcc, row.DAGMeanLevel, row.RelError)
	}
	return t
}
