package repro_test

// One benchmark per reproduction experiment (E1–E13 in DESIGN.md), plus
// ablation benches for the design choices DESIGN.md calls out. Each
// experiment bench runs the same code path as cmd/bo3sweep at the Quick
// scale and reports a domain metric via b.ReportMetric, so
// `go test -bench=. -benchmem` regenerates every table's data shape.

import (
	"context"
	"testing"

	"repro"
	"repro/internal/dynamics"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/opinion"
	"repro/internal/rng"
)

func benchCfg(i int) experiments.Config {
	c := experiments.Quick()
	c.Seed = uint64(i) + 1
	return c
}

func BenchmarkE1ConsensusScalingN(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E1ConsensusScaling(benchCfg(i))
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.MeanRounds, "rounds@maxN")
		b.ReportMetric(last.RedWins.P, "redwin-rate")
	}
}

func BenchmarkE2DeltaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E2DeltaSweep(benchCfg(i))
		b.ReportMetric(res.SlopePerLogInvDelta().Slope, "rounds-per-ln(1/delta)")
	}
}

func BenchmarkE3IdealRecursion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E3IdealRecursion(benchCfg(i))
		b.ReportMetric(res.MaxAbsError(), "max-abs-error")
	}
}

func BenchmarkE4SprinklingMajorisation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E4SprinklingMajorisation(benchCfg(i))
		ok := 0.0
		if res.AllMajorised() {
			ok = 1
		}
		b.ReportMetric(ok, "majorised")
	}
}

func BenchmarkE5TernaryThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E5TernaryThreshold(benchCfg(i))
		b.ReportMetric(float64(res.Violations()), "violations")
	}
}

func BenchmarkE6CollisionTransform(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E6CollisionTransform(benchCfg(i))
		ok := 0.0
		if res.AllSound() {
			ok = 1
		}
		b.ReportMetric(ok, "sound")
	}
}

func BenchmarkE7CollisionTail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E7CollisionTail(benchCfg(i))
		ok := 0.0
		if res.AllMajorised() {
			ok = 1
		}
		b.ReportMetric(ok, "majorised")
	}
}

func BenchmarkE8DeltaGrowth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E8DeltaGrowth(benchCfg(i))
		b.ReportMetric(res.MinGrowthBelowFixedPoint(), "min-growth-factor")
	}
}

func BenchmarkE9BaselineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E9BaselineComparison(benchCfg(i))
		voter := res.MeanRoundsFor("best-of-1", "complete-virtual")
		bo3 := res.MeanRoundsFor("best-of-3", "complete-virtual")
		if bo3 > 0 {
			b.ReportMetric(voter/bo3, "voter/bo3-speedup")
		}
	}
}

func BenchmarkE10DensityGate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E10DensityGate(benchCfg(i))
		var dense, sparse float64
		for _, row := range res.Rows {
			if row.DenseClass {
				dense = row.MeanRounds
			}
			if row.Family == "cycle" {
				sparse = row.MeanRounds
			}
		}
		if dense > 0 {
			b.ReportMetric(sparse/dense, "sparse/dense-slowdown")
		}
	}
}

func BenchmarkE11CobraDuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E11CobraDuality(benchCfg(i))
		b.ReportMetric(res.MaxRelError(), "max-rel-error")
	}
}

func BenchmarkE12SprinklingFigure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E12SprinklingFigure(benchCfg(i))
		b.ReportMetric(float64(res.ArtificialAdded), "artificial-nodes")
	}
}

func BenchmarkE13PhaseSchedule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E13PhaseSchedule(benchCfg(i))
		for _, row := range res.Rows {
			if row.Phase == "total" {
				b.ReportMetric(float64(row.Measured), "measured-total-rounds")
			}
		}
	}
}

func BenchmarkE14PluralityConsensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E14PluralityConsensus(benchCfg(i))
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.MeanRounds, "rounds@maxQ")
	}
}

func BenchmarkE15StubbornZealots(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E15StubbornZealots(benchCfg(i))
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.FinalBlueFrac, "blue-frac@maxZealots")
	}
}

func BenchmarkE16AdversarialPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E16AdversarialPlacement(benchCfg(i))
		b.ReportMetric(res.SlowdownOnTorus(), "torus-clustered-slowdown")
	}
}

func BenchmarkE17ForwardBackwardDuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E17ForwardBackwardDuality(benchCfg(i))
		ok := 0.0
		if res.AllCompatible() {
			ok = 1
		}
		b.ReportMetric(ok, "compatible")
	}
}

func BenchmarkE18AsyncVsSync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E18AsyncVsSync(benchCfg(i))
		if res.Rows[0].MeanRounds > 0 {
			b.ReportMetric(res.Rows[1].MeanRounds/res.Rows[0].MeanRounds, "async/sync-ratio")
		}
	}
}

func BenchmarkE19NoiseThreshold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E19NoiseThreshold(benchCfg(i))
		last := res.Rows[len(res.Rows)-1]
		b.ReportMetric(last.FinalBlueFrac, "blue-frac@maxNoise")
	}
}

func BenchmarkE20ExactChainValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E20ExactChainValidation(benchCfg(i))
		ok := 0.0
		if res.AllWithinIntervals() {
			ok = 1
		}
		b.ReportMetric(ok, "agree")
	}
}

func BenchmarkE21SpectralComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.E21SpectralComparison(benchCfg(i))
		b.ReportMetric(res.Rows[0].MeanRounds, "dense-rounds")
	}
}

// --- Ablation benches (design choices listed in DESIGN.md) ---

// benchStep builds a process and times repeated Step calls.
func benchStep(b *testing.B, g dynamics.Topology, rule dynamics.Rule) {
	b.Helper()
	cfg := opinion.RandomConfig(g.N(), 0.4, rng.New(7))
	p, err := dynamics.New(g, rule, cfg, dynamics.Options{Seed: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
	b.ReportMetric(float64(g.N())*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mvertex/s")
}

func BenchmarkAblationStepSequential(b *testing.B) {
	g := graph.RandomRegular(1<<15, 32, rng.New(1))
	benchStep(b, g, dynamics.BestOfThree)
}

func BenchmarkAblationWithReplacement(b *testing.B) {
	g := graph.RandomRegular(1<<14, 32, rng.New(2))
	benchStep(b, g, dynamics.Rule{K: 3})
}

func BenchmarkAblationWithoutReplacement(b *testing.B) {
	g := graph.RandomRegular(1<<14, 32, rng.New(2))
	benchStep(b, g, dynamics.Rule{K: 3, WithoutReplacement: true})
}

func BenchmarkAblationTieKeepVsRandom(b *testing.B) {
	g := graph.RandomRegular(1<<14, 32, rng.New(3))
	b.Run("keep", func(b *testing.B) { benchStep(b, g, dynamics.Rule{K: 2, Tie: dynamics.TieKeep}) })
	b.Run("random", func(b *testing.B) { benchStep(b, g, dynamics.Rule{K: 2, Tie: dynamics.TieRandom}) })
}

func BenchmarkAblationVirtualVsMaterialisedComplete(b *testing.B) {
	const n = 4096
	b.Run("virtual", func(b *testing.B) { benchStep(b, graph.NewKn(n), dynamics.BestOfThree) })
	b.Run("materialised", func(b *testing.B) { benchStep(b, graph.Complete(n), dynamics.BestOfThree) })
}

func BenchmarkEndToEndConsensus(b *testing.B) {
	gs := repro.GraphSpec{Family: "random-regular", N: 1 << 14, D: 128, Seed: 4}
	g, err := gs.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := repro.NewRunner(repro.RunSpec{Graph: gs, Delta: 0.05, Seed: uint64(i)}, repro.WithTopology(g))
		if err != nil {
			b.Fatal(err)
		}
		rep, err := r.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rep.MeanRounds, "rounds")
	}
}

// BenchmarkMeanFieldJob runs one mean-field job in the open-loop load's
// shape (complete-virtual, n = 2¹⁴, δ = 0.1, 8 trials) on one worker.
// Each trial's initial colouring draws n generator words, while each of
// its rounds is two binomial draws, so the colouring is most of the cost.
func BenchmarkMeanFieldJob(b *testing.B) {
	gs := repro.GraphSpec{Family: "complete-virtual", N: 1 << 14}
	g, err := gs.Build()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := repro.NewRunner(repro.RunSpec{Graph: gs, Delta: 0.1, Trials: 8, Seed: uint64(i)}, repro.WithTopology(g), repro.WithWorkers(1))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}
