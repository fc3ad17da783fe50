package experiments

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

func TestE14PluralityShape(t *testing.T) {
	res := E14PluralityConsensus(quickCfg())
	if len(res.Rows) < 4 {
		t.Fatal("too few rows")
	}
	// q = 2 must behave like the paper's setting: fast, plurality wins.
	first := res.Rows[0]
	if first.Q != 2 || first.PluralityWins.P < 0.9 {
		t.Errorf("q=2 row: %+v", first)
	}
	// Consensus time grows with q (shape claim of [2]); allow one noise
	// inversion.
	if !res.RoundsIncreaseWithQ() {
		t.Errorf("rounds not increasing with q:\n%s", res.Table())
	}
	// With a 1.5x advantage the plurality should win essentially always.
	for _, row := range res.Rows {
		if row.PluralityWins.P < 0.8 {
			t.Errorf("q=%d: plurality wins %.2f", row.Q, row.PluralityWins.P)
		}
	}
}

func TestE15ZealotPhase(t *testing.T) {
	res := E15StubbornZealots(quickCfg())
	if len(res.Rows) < 4 {
		t.Fatal("too few rows")
	}
	// No zealots: blue mass collapses to ~0.
	if res.Rows[0].FinalBlueFrac > 0.01 {
		t.Errorf("zero-zealot final blue frac %.3f", res.Rows[0].FinalBlueFrac)
	}
	// Small zealot sets (<= 1%) cannot overturn the red majority.
	for _, row := range res.Rows {
		if row.StubbornFrac <= 0.01 && row.RedDominates.P < 0.9 {
			t.Errorf("zealot frac %.3f: red dominates only %.2f", row.StubbornFrac, row.RedDominates.P)
		}
	}
	// Final blue mass grows monotonically-ish with the zealot mass.
	last := res.Rows[len(res.Rows)-1]
	if last.FinalBlueFrac <= res.Rows[0].FinalBlueFrac {
		t.Errorf("zealots had no effect:\n%s", res.Table())
	}
}

func TestE16PlacementEffect(t *testing.T) {
	res := E16AdversarialPlacement(quickCfg())
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Dense regular graph: both placements fast and red-won.
	for _, row := range res.Rows {
		if row.Family == "random-regular" {
			if row.MeanRounds > 60 {
				t.Errorf("regular/%s: %.1f rounds", row.Placement, row.MeanRounds)
			}
			if row.RedWins.P < 0.9 {
				t.Errorf("regular/%s: red wins %.2f", row.Placement, row.RedWins.P)
			}
		}
	}
	// Torus: clustered placement must be dramatically slower than random.
	if ratio := res.SlowdownOnTorus(); ratio < 2 {
		t.Errorf("torus clustered/random slowdown = %.2f, want >= 2:\n%s", ratio, res.Table())
	}
}

func TestPlaceBluesExactCountAndClustering(t *testing.T) {
	src := rng.New(1)
	g := graph.Torus2D(32, 32)
	for _, clustered := range []bool{false, true} {
		cfgp := placeBlues(g, 100, clustered, src)
		if got := cfgp.Blues(); got != 100 {
			t.Errorf("clustered=%v: blues = %d, want 100", clustered, got)
		}
	}
	// Clustered placement on the torus must have far fewer red-blue
	// boundary edges than random placement.
	boundary := func(clustered bool) int {
		cfgp := placeBlues(g, 100, clustered, rng.New(7))
		cut := 0
		for v := 0; v < g.N(); v++ {
			for i := 0; i < g.Degree(v); i++ {
				w := g.Neighbor(v, i)
				if v < w && cfgp.Get(v) != cfgp.Get(w) {
					cut++
				}
			}
		}
		return cut
	}
	if bc, br := boundary(true), boundary(false); bc >= br/2 {
		t.Errorf("clustered boundary %d not much smaller than random %d", bc, br)
	}
}

func TestPlaceBluesFullGraph(t *testing.T) {
	g := graph.Complete(10)
	cfgp := placeBlues(g, 15, true, rng.New(2))
	if cfgp.Blues() != 10 {
		t.Errorf("overfull placement blues = %d", cfgp.Blues())
	}
}
