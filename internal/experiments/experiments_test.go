package experiments

import (
	"math"
	"reflect"
	"runtime"
	"testing"
)

// The experiment tests run the Quick configuration and assert the *shape*
// claims of the paper: who wins, by what order, where the gates fall. They
// double as end-to-end integration tests of graph + dynamics + votingdag +
// theory + sim.

func quickCfg() Config {
	c := Quick()
	c.Workers = 4
	return c
}

func TestE1ShapeClaims(t *testing.T) {
	res := E1ConsensusScaling(quickCfg())
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range res.Rows {
		// Red must essentially always win at delta = 0.05 on dense graphs.
		if row.RedWins.P < 0.9 {
			t.Errorf("%v n=%d: red win rate %.2f", row.Family, row.N, row.RedWins.P)
		}
		// Rounds must stay tiny (double-log, single-to-low-double digits).
		if row.MeanRounds > 40 {
			t.Errorf("%v n=%d: mean rounds %.1f not double-log-ish", row.Family, row.N, row.MeanRounds)
		}
		if row.ConsensusFraction < 0.99 {
			t.Errorf("%v n=%d: consensus fraction %.2f", row.Family, row.N, row.ConsensusFraction)
		}
	}
	if res.Table().NumRows() != len(res.Rows) {
		t.Error("table row mismatch")
	}
}

func TestE2DeltaDependenceIsLogarithmic(t *testing.T) {
	cfg := quickCfg()
	res := E2DeltaSweep(cfg)
	if len(res.Rows) < 4 {
		t.Fatal("too few rows")
	}
	fit := res.SlopePerLogInvDelta()
	// Rounds grow with log(1/delta): positive bounded slope. The 5/4
	// growth predicts ~1/log(5/4) ≈ 4.5 rounds per e-fold; allow slack.
	if fit.Slope <= 0 || fit.Slope > 12 {
		t.Errorf("slope per log(1/delta) = %v, want in (0, 12]", fit.Slope)
	}
	// Red must win w.h.p. wherever the imbalance clears the finite-size
	// noise floor: the initial blue count has standard deviation ~√n/2, so
	// δ ≳ 4/√n is needed for the signal to dominate at laptop scale (the
	// paper's δ ≥ (log d)^−C condition is asymptotic).
	floor := 4 / math.Sqrt(float64(res.N))
	for _, row := range res.Rows {
		if row.Delta >= floor && row.RedWins.P < 0.85 {
			t.Errorf("red win rate %.2f at delta=%.3f (noise floor %.3f)", row.RedWins.P, row.Delta, floor)
		}
	}
	if res.Table().NumRows() != len(res.Rows) {
		t.Error("table row mismatch")
	}
}

func TestE3RecursionTracksSimulation(t *testing.T) {
	res := E3IdealRecursion(quickCfg())
	// On K_n the recursion is exact up to sampling noise O(1/sqrt(n·trials))
	// plus the accumulated drift; 0.02 absolute is generous.
	if err := res.MaxAbsError(); err > 0.02 {
		t.Errorf("max |empirical - recursion| = %v", err)
	}
	// The trajectory must actually collapse to 0.
	lastRow := res.Rows[len(res.Rows)-1]
	if lastRow.EmpiricalBlue > 0.001 {
		t.Errorf("blue fraction did not collapse: %v", lastRow.EmpiricalBlue)
	}
}

// TestE3DeterministicAcrossGOMAXPROCS: the trajectory rows run one engine
// worker per trial, so the table is a function of the seed alone — not of
// the core count the harness happens to see.
func TestE3DeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	one := E3IdealRecursion(Quick())
	runtime.GOMAXPROCS(4)
	four := E3IdealRecursion(Quick())
	if !reflect.DeepEqual(one, four) {
		t.Errorf("E3 rows differ between GOMAXPROCS 1 and 4:\n%s\n%s", one.Table(), four.Table())
	}
}

func TestE4MajorisationHolds(t *testing.T) {
	res := E4SprinklingMajorisation(quickCfg())
	if !res.AllMajorised() {
		t.Errorf("equation (2) majorisation violated:\n%s", res.Table())
	}
	// The recursion decreases while the bottom-level error 3^T/d stays
	// small; once 3^T ≳ d the ε terms dominate and the bound degrades
	// gracefully towards 1 (still a valid majorant). Check only the small-
	// height rows where the regime applies.
	if res.Rows[0].RecursionP >= 0.5-0.01 {
		t.Errorf("height-2 recursion %v did not contract", res.Rows[0].RecursionP)
	}
}

func TestE5NoViolations(t *testing.T) {
	res := E5TernaryThreshold(quickCfg())
	if res.Violations() != 0 {
		t.Errorf("Lemma 5 violations found:\n%s", res.Table())
	}
	// Make sure the experiment actually exercised blue roots.
	total := 0
	for _, row := range res.Rows {
		total += row.BlueRoots
	}
	if total == 0 {
		t.Error("no blue roots sampled; experiment vacuous")
	}
}

func TestE6TransformSound(t *testing.T) {
	res := E6CollisionTransform(quickCfg())
	if !res.AllSound() {
		t.Errorf("Lemma 6 soundness violated:\n%s", res.Table())
	}
}

func TestE7CollisionTailMajorised(t *testing.T) {
	res := E7CollisionTail(quickCfg())
	if !res.AllMajorised() {
		t.Errorf("Lemma 7 majorisation violated:\n%s", res.Table())
	}
	// At fixed height (the h = 2 rows), collisions must become rarer as the
	// degree rises; at fixed degree, more levels mean more collisions.
	var h2 []E7Row
	for _, row := range res.Rows {
		if row.Height == 2 {
			h2 = append(h2, row)
		}
	}
	for i := 1; i < len(h2); i++ {
		if h2[i].D > h2[i-1].D && h2[i].MeanCollisions > h2[i-1].MeanCollisions+0.3 {
			t.Errorf("mean collisions rose with degree at h=2: %v -> %v",
				h2[i-1].MeanCollisions, h2[i].MeanCollisions)
		}
	}
}

func TestE8GrowthFactor(t *testing.T) {
	res := E8DeltaGrowth(quickCfg())
	min := res.MinGrowthBelowFixedPoint()
	// The paper proves >= 5/4 for the recursion; the empirical factor on
	// K_n concentrates near the recursion value 3/2 - O(delta^2). Allow
	// noise above 5/4's vicinity.
	if min < 1.2 {
		t.Errorf("min empirical growth factor %v < 1.2:\n%s", min, res.Table())
	}
	if math.IsInf(min, 1) {
		t.Error("no growth rounds measured")
	}
}

func TestE9BaselineOrdering(t *testing.T) {
	res := E9BaselineComparison(quickCfg())
	for _, family := range []string{"complete-virtual", "random-regular"} {
		voter := res.MeanRoundsFor("best-of-1", family)
		bo3 := res.MeanRoundsFor("best-of-3", family)
		bo2 := res.MeanRoundsFor("best-of-2/keep", family)
		if math.IsNaN(voter) || math.IsNaN(bo3) || math.IsNaN(bo2) {
			t.Fatalf("%v: missing rows\n%s", family, res.Table())
		}
		// The introduction's claim: best-of-k (k>=2) is much faster than the
		// voter model.
		if bo3 >= voter/5 {
			t.Errorf("%v: best-of-3 (%.1f) not ≫ faster than voter (%.1f)", family, bo3, voter)
		}
		if bo2 >= voter/2 {
			t.Errorf("%v: best-of-2 (%.1f) not faster than voter (%.1f)", family, bo2, voter)
		}
	}
	// Best-of-3 must win red w.h.p.
	for _, row := range res.Rows {
		if row.Rule == "best-of-3" && row.RedWins.P < 0.9 {
			t.Errorf("best-of-3 red wins %.2f on %v", row.RedWins.P, row.Graph)
		}
	}
}

func TestE10DensityGateOrdering(t *testing.T) {
	res := E10DensityGate(quickCfg())
	var dense, sparse []float64
	for _, row := range res.Rows {
		if row.DenseClass {
			dense = append(dense, row.MeanRounds)
		} else if row.Family == "cycle" || row.Family == "torus" {
			sparse = append(sparse, row.MeanRounds)
		}
		// Red must win on the dense families.
		if row.DenseClass && row.RedWins.P < 0.9 {
			t.Errorf("%v: red wins %.2f", row.Graph, row.RedWins.P)
		}
	}
	if len(dense) == 0 || len(sparse) == 0 {
		t.Fatal("missing rows")
	}
	maxDense, minSparse := 0.0, math.Inf(1)
	for _, v := range dense {
		maxDense = math.Max(maxDense, v)
	}
	for _, v := range sparse {
		minSparse = math.Min(minSparse, v)
	}
	if minSparse < 2*maxDense {
		t.Errorf("sparse graphs (%.1f rounds) not clearly slower than dense (%.1f):\n%s",
			minSparse, maxDense, res.Table())
	}
}

func TestE11DualityAgreement(t *testing.T) {
	res := E11CobraDuality(quickCfg())
	if res.MaxRelError() > 0.15 {
		t.Errorf("duality max relative error %v:\n%s", res.MaxRelError(), res.Table())
	}
	// Occupancy must grow roughly like 3^t before saturation.
	if res.Rows[1].WalkMeanOcc < 2.5 || res.Rows[2].WalkMeanOcc < 6 {
		t.Errorf("occupancy growth too slow:\n%s", res.Table())
	}
}

func TestE12FigureWalkthrough(t *testing.T) {
	res := E12SprinklingFigure(quickCfg())
	if res.CollisionLevelsBefore == 0 {
		t.Error("figure DAG should contain collisions")
	}
	if res.CollisionLevelsAfter != 0 {
		t.Error("sprinkling left collisions")
	}
	// The figure DAG has 4 colliding slots: node 10 repeats leaf 0; node 11
	// re-reveals leaf 1 and repeats leaf 2; the root repeats node 1.
	if res.ArtificialAdded != 4 {
		t.Errorf("artificial nodes = %d, want 4 (one per colliding slot)", res.ArtificialAdded)
	}
	if !res.CouplingHolds {
		t.Error("coupling X_H <= X_H' violated on the figure DAG")
	}
}

func TestE13ScheduleMagnitudes(t *testing.T) {
	res := E13PhaseSchedule(quickCfg())
	var total E13Row
	for _, row := range res.Rows {
		if row.Phase == "total" {
			total = row
		}
	}
	if total.Measured <= 0 {
		t.Fatalf("no measured total:\n%s", res.Table())
	}
	// Prediction and measurement must agree in order of magnitude (both
	// double-log-ish, low double digits).
	ratio := float64(total.Predicted) / float64(total.Measured)
	if ratio < 0.3 || ratio > 5 {
		t.Errorf("schedule prediction %d vs measured %d (ratio %.2f):\n%s",
			total.Predicted, total.Measured, ratio, res.Table())
	}
}
