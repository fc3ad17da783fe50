package experiments

import "testing"

func TestE17DualityCompatible(t *testing.T) {
	res := E17ForwardBackwardDuality(quickCfg())
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if !res.AllCompatible() {
		t.Errorf("forward and backward estimators disagree:\n%s", res.Table())
	}
	// Blue probability must shrink with T (the dynamic amplifies red).
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Forward.P > res.Rows[i-1].Forward.P+0.05 {
			t.Errorf("forward blue probability rose at T=%d:\n%s", res.Rows[i].T, res.Table())
		}
	}
}

func TestE18BothModelsConvergeRed(t *testing.T) {
	res := E18AsyncVsSync(quickCfg())
	byDelta := map[float64][]E18Row{}
	for _, row := range res.Rows {
		byDelta[row.Delta] = append(byDelta[row.Delta], row)
	}
	if len(byDelta) == 0 {
		t.Fatal("no rows")
	}
	for delta, rows := range byDelta {
		if len(rows) != 2 {
			t.Fatalf("delta=%v: rows = %d", delta, len(rows))
		}
		for _, row := range rows {
			if row.RedWins.P < 0.9 {
				t.Errorf("delta=%v %s: red wins %.2f", delta, row.Model, row.RedWins.P)
			}
			if row.MeanRounds > 60 {
				t.Errorf("delta=%v %s: %.1f rounds, not double-log-ish", delta, row.Model, row.MeanRounds)
			}
		}
		// Both in the same regime: within a factor 4 of each other.
		a, b := rows[0].MeanRounds, rows[1].MeanRounds
		if a > 4*b || b > 4*a {
			t.Errorf("delta=%v: activation models diverged: %.1f vs %.1f", delta, a, b)
		}
	}
}

func TestE19NoiseShape(t *testing.T) {
	res := E19NoiseThreshold(quickCfg())
	// One noise series per (graph, dynamic), in ascending noise order.
	series := map[string][]E19Row{}
	for _, row := range res.Rows {
		key := row.Graph + "/" + row.Model
		series[key] = append(series[key], row)
	}
	if len(series) == 0 {
		t.Fatal("no rows")
	}
	for key, rows := range series {
		if len(rows) < 6 {
			t.Fatalf("%s: rows = %d", key, len(rows))
		}
		// Noiseless: blue mass gone; red dominates.
		if rows[0].FinalBlueFrac > 0.01 || rows[0].RedDominates.P < 0.95 {
			t.Errorf("%s: noiseless row wrong: %+v", key, rows[0])
		}
		// Max noise: half-half, red cannot dominate.
		last := rows[len(rows)-1]
		if last.FinalBlueFrac < 0.4 || last.FinalBlueFrac > 0.6 {
			t.Errorf("%s: max-noise blue frac %.2f, want ~0.5", key, last.FinalBlueFrac)
		}
		if last.RedDominates.P > 0.2 {
			t.Errorf("%s: red dominates %.2f at max noise", key, last.RedDominates.P)
		}
		// Blue mass grows with noise (allow one inversion for sampling noise).
		inversions := 0
		for i := 1; i < len(rows); i++ {
			if rows[i].FinalBlueFrac < rows[i-1].FinalBlueFrac-0.01 {
				inversions++
			}
		}
		if inversions > 1 {
			t.Errorf("%s: blue mass not monotone in noise:\n%s", key, res.Table())
		}
	}
}
