package experiments

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/theory"
	"repro/spec"
)

// blueFractions runs the complete-graph trajectory spec shared by E3, E8
// and E13 — Best-of-Three on virtual K_n from P(blue) = 1/2 − delta, up to
// the row's horizon — and returns frac[t][i], trial i's blue fraction
// after round t; a trial that reached consensus earlier keeps its final
// value. The spec forces the general engine: these rows validate the
// per-vertex sampling engine against analytic ground truth, and the
// mean-field fast path draws from the same kernel the recursions compute,
// which would make the comparison circular.
func blueFractions(cfg Config, n int, delta float64, rounds int) [][]float64 {
	rep := runSpec(cfg, spec.RunSpec{
		Graph:     spec.GraphSpec{Family: "complete-virtual", N: n},
		Delta:     delta,
		Trials:    cfg.Trials,
		MaxRounds: rounds,
		Seed:      cfg.Seed,
		Engine:    "general",
	})
	frac := make([][]float64, rounds+1)
	for t := range frac {
		frac[t] = make([]float64, len(rep.Reports))
		for i, r := range rep.Reports {
			traj := r.BlueTrajectory
			frac[t][i] = float64(traj[min(t, len(traj)-1)]) / float64(n)
		}
	}
	return frac
}

// E3Row compares one round of the empirical complete-graph trajectory with
// equation (1).
type E3Row struct {
	Round          int
	EmpiricalBlue  float64 // mean blue fraction over trials
	RecursionBlue  float64 // b_t from eq. (1)
	AbsError       float64
	EmpiricalStdev float64
}

// E3Result is the ideal-recursion tracking experiment.
type E3Result struct {
	N     int
	Delta float64
	Rows  []E3Row
}

// E3IdealRecursion runs Best-of-Three on a large complete graph and checks
// that the per-round blue fraction tracks b_t = 3b² − 2b³ (equation 1): on
// K_n every vertex samples from the same pool, so the voting-DAG is a tree
// in the limit and the recursion is exact up to O(1/√n) fluctuations.
func E3IdealRecursion(cfg Config) E3Result {
	n := cfg.MaxN * 4 // complete graphs are virtual; larger n tightens concentration
	const delta = 0.1
	const rounds = 12
	res := E3Result{N: n, Delta: delta}
	pred := theory.IdealRecursion(0.5-delta, rounds)
	for t, fracs := range blueFractions(cfg, n, delta, rounds) {
		sum := stats.Summarize(fracs)
		res.Rows = append(res.Rows, E3Row{
			Round:          t,
			EmpiricalBlue:  sum.Mean,
			RecursionBlue:  pred[t],
			AbsError:       math.Abs(sum.Mean - pred[t]),
			EmpiricalStdev: sum.Std,
		})
	}
	return res
}

// MaxAbsError returns the largest |empirical − recursion| across rounds.
func (r E3Result) MaxAbsError() float64 {
	max := 0.0
	for _, row := range r.Rows {
		if row.AbsError > max {
			max = row.AbsError
		}
	}
	return max
}

// Table renders the result.
func (r E3Result) Table() *table.Table {
	t := table.New(
		fmt.Sprintf("E3 (equation 1): complete-graph blue fraction vs recursion, n=%d delta=%.2f", r.N, r.Delta),
		"round", "empirical b_t", "recursion b_t", "|error|", "stdev")
	for _, row := range r.Rows {
		t.AddRow(row.Round, row.EmpiricalBlue, row.RecursionBlue, row.AbsError, row.EmpiricalStdev)
	}
	return t
}

// E8Row is one step of the δ-growth comparison.
type E8Row struct {
	Round          int
	EmpiricalDelta float64
	RecursionDelta float64
	GrowthFactor   float64 // empirical δ_t/δ_{t−1}
}

// E8Result verifies the (5/4)-growth phase of equations (4)–(5).
type E8Result struct {
	N    int
	Rows []E8Row
}

// E8DeltaGrowth measures the per-round growth of δ_t = 1/2 − b_t on a
// complete graph started at small δ, against the recursion
// δ ← δ + δ/2 − 2δ³ (ε = 0 on K_n) and the 5/4 lower bound.
func E8DeltaGrowth(cfg Config) E8Result {
	n := cfg.MaxN * 4
	const delta0 = 0.02
	const rounds = 14
	res := E8Result{N: n}
	recDelta := delta0
	for t, fracs := range blueFractions(cfg, n, delta0, rounds) {
		row := E8Row{Round: t, EmpiricalDelta: 0.5 - stats.Summarize(fracs).Mean, RecursionDelta: recDelta}
		if t > 0 && res.Rows[t-1].EmpiricalDelta > 1e-9 {
			row.GrowthFactor = row.EmpiricalDelta / res.Rows[t-1].EmpiricalDelta
		}
		res.Rows = append(res.Rows, row)
		recDelta = theory.DeltaStep(recDelta, 0)
		if recDelta > 0.5 {
			recDelta = 0.5
		}
	}
	return res
}

// MinGrowthBelowFixedPoint returns the smallest empirical growth factor
// among rounds where δ was below the fixed point 1/(2√3) (and above noise).
func (r E8Result) MinGrowthBelowFixedPoint() float64 {
	min := math.Inf(1)
	for _, row := range r.Rows {
		if row.Round == 0 || row.GrowthFactor == 0 {
			continue
		}
		prev := r.Rows[row.Round-1].EmpiricalDelta
		if prev > 0.005 && prev < theory.DeltaFixedPoint {
			if row.GrowthFactor < min {
				min = row.GrowthFactor
			}
		}
	}
	return min
}

// Table renders the result.
func (r E8Result) Table() *table.Table {
	t := table.New(
		fmt.Sprintf("E8 (equations 4-5): delta growth on complete graph, n=%d", r.N),
		"round", "empirical delta", "recursion delta", "growth factor")
	for _, row := range r.Rows {
		t.AddRow(row.Round, row.EmpiricalDelta, row.RecursionDelta, row.GrowthFactor)
	}
	return t
}

// E13Row is one phase of the Lemma 4 schedule comparison.
type E13Row struct {
	Phase     string
	Predicted int
	Measured  int
}

// E13Result compares the Lemma 4 phase schedule with measured phase
// boundaries of a complete-graph trajectory.
type E13Result struct {
	N     int
	Delta float64
	Rows  []E13Row
}

// E13PhaseSchedule segments the measured mean trajectory into the paper's
// three phases — growth (δ below the fixed point), collapse (blue fraction
// falling to ~1/d), finish (to zero) — and compares each length with the
// Schedule prediction.
func E13PhaseSchedule(cfg Config) E13Result {
	n := cfg.MaxN * 4
	const delta0 = 0.02
	res := E13Result{N: n, Delta: delta0}
	d := float64(n - 1) // complete graph degree

	const rounds = 40
	var traj []float64
	for _, fracs := range blueFractions(cfg, n, delta0, rounds) {
		traj = append(traj, stats.Summarize(fracs).Mean)
	}

	// Measured boundaries.
	growthEnd := rounds
	for t, b := range traj {
		if 0.5-b >= theory.DeltaFixedPoint {
			growthEnd = t
			break
		}
	}
	collapseEnd := rounds
	for t := growthEnd; t <= rounds; t++ {
		if traj[t] <= 12.0/d {
			collapseEnd = t
			break
		}
	}
	finishEnd := rounds
	for t := collapseEnd; t <= rounds; t++ {
		if traj[t] <= 1e-9 {
			finishEnd = t
			break
		}
	}

	sched := theory.Schedule(d, delta0, 1)
	res.Rows = []E13Row{
		{Phase: "growth (T3)", Predicted: sched.T3, Measured: growthEnd},
		{Phase: "collapse (T2)", Predicted: sched.T2, Measured: collapseEnd - growthEnd},
		{Phase: "finish (T1)", Predicted: sched.T1, Measured: finishEnd - collapseEnd},
		{Phase: "total", Predicted: sched.Total, Measured: finishEnd},
	}
	return res
}

// Table renders the result.
func (r E13Result) Table() *table.Table {
	t := table.New(
		fmt.Sprintf("E13 (Lemma 4): phase schedule vs measured boundaries, complete n=%d delta=%.2f", r.N, r.Delta),
		"phase", "predicted rounds", "measured rounds")
	for _, row := range r.Rows {
		t.AddRow(row.Phase, row.Predicted, row.Measured)
	}
	return t
}
