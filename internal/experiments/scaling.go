package experiments

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/table"
)

// E1Row is one cell of the consensus-scaling experiment.
type E1Row struct {
	Family            string
	Graph             string
	N                 int
	Delta             float64
	MeanRounds        float64
	MaxRounds         int
	RedWins           stats.Proportion
	PredictedRounds   int
	LogLogN           float64
	RoundsPerLogLogN  float64
	ConsensusFraction float64
}

// E1Result is the Theorem 1 headline experiment: consensus time versus n on
// dense families.
type E1Result struct {
	Rows []E1Row
}

// E1ConsensusScaling runs the E1 registry grid — n over powers of two on
// the dense families — and measures Best-of-Three consensus time and the
// red win rate, against the Theorem 1 prediction O(log log n + log δ⁻¹).
func E1ConsensusScaling(cfg Config) E1Result {
	var res E1Result
	for _, rep := range runSweep(cfg, "E1") {
		n := rep.Spec.Graph.N
		lln := math.Log(math.Log(float64(n)))
		res.Rows = append(res.Rows, E1Row{
			Family:            rep.Spec.Graph.Family,
			Graph:             rep.GraphName,
			N:                 n,
			Delta:             rep.Spec.Delta,
			MeanRounds:        rep.MeanRounds,
			MaxRounds:         rep.MaxRounds,
			RedWins:           redWins(rep),
			PredictedRounds:   rep.PredictedRounds,
			LogLogN:           lln,
			RoundsPerLogLogN:  rep.MeanRounds / lln,
			ConsensusFraction: consensusFraction(rep),
		})
	}
	return res
}

// FitExponent fits rounds ~ c·(log log n)^e over the rows of one family;
// an exponent near 1 (and far below what a log n fit would need) supports
// the double-logarithmic claim.
func (r E1Result) FitExponent(family string) (exponent, r2 float64) {
	var xs, ys []float64
	for _, row := range r.Rows {
		if row.Family == family && row.MeanRounds > 0 {
			xs = append(xs, row.LogLogN)
			ys = append(ys, row.MeanRounds)
		}
	}
	e, _, rr := stats.FitPower(xs, ys)
	return e, rr
}

// Table renders the result.
func (r E1Result) Table() *table.Table {
	t := table.New(
		fmt.Sprintf("E1 (Theorem 1): Best-of-3 consensus time vs n, delta=%.2f", r.Rows[0].Delta),
		"graph", "mean rounds", "max rounds", "pred rounds", "rounds/loglog n", "red wins", "95% CI")
	for _, row := range r.Rows {
		t.AddRow(row.Graph, row.MeanRounds, row.MaxRounds,
			row.PredictedRounds, row.RoundsPerLogLogN, row.RedWins.P,
			fmt.Sprintf("[%.3f,%.3f]", row.RedWins.Lo, row.RedWins.Hi))
	}
	return t
}

// E2Row is one δ point of the imbalance sweep.
type E2Row struct {
	Delta      float64
	LogInvD    float64
	MeanRounds float64
	RedWins    stats.Proportion
	Predicted  int
}

// E2Result measures the additive O(log δ⁻¹) term of Theorem 1.
type E2Result struct {
	N     int
	Graph string
	Rows  []E2Row
}

// E2DeltaSweep runs the E2 registry grid — one dense graph, the initial
// imbalance δ swept downwards; mean consensus time should grow like
// log δ⁻¹ (linear in the LogInvD column), not explode.
func E2DeltaSweep(cfg Config) E2Result {
	var res E2Result
	for _, rep := range runSweep(cfg, "E2") {
		res.N, res.Graph = rep.Spec.Graph.N, rep.GraphName
		res.Rows = append(res.Rows, E2Row{
			Delta:      rep.Spec.Delta,
			LogInvD:    math.Log(1 / rep.Spec.Delta),
			MeanRounds: rep.MeanRounds,
			RedWins:    redWins(rep),
			Predicted:  rep.PredictedRounds,
		})
	}
	return res
}

// SlopePerLogInvDelta fits mean rounds against log δ⁻¹ and returns the
// slope: Theorem 1 predicts a bounded positive slope (each 5/4-growth step
// buys a constant factor of δ).
func (r E2Result) SlopePerLogInvDelta() stats.LinearFit {
	var xs, ys []float64
	for _, row := range r.Rows {
		xs = append(xs, row.LogInvD)
		ys = append(ys, row.MeanRounds)
	}
	return stats.FitLine(xs, ys)
}

// Table renders the result.
func (r E2Result) Table() *table.Table {
	t := table.New(
		fmt.Sprintf("E2 (Theorem 1, delta term): rounds vs delta on %s", r.Graph),
		"delta", "log(1/delta)", "mean rounds", "pred rounds", "red wins")
	for _, row := range r.Rows {
		t.AddRow(row.Delta, row.LogInvD, row.MeanRounds, row.Predicted, row.RedWins.P)
	}
	return t
}
