package markov

import (
	"math"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/opinion"
	"repro/internal/rng"
)

// TestEnginesMatchExactChain is the E20-style acceptance test for the
// engine dispatch: on K_n the mean-field fast path and the general
// engine must both be statistically indistinguishable from the
// exact blue-count chain. Each engine's empirical red-win rate over
// `trials` runs is required to sit inside the 99% CI around the exact
// absorption probability, and the two engines inside the 99% CI of each
// other — the fast path follows a different RNG stream, so distributional
// (not byte) equality is exactly the contract.
func TestEnginesMatchExactChain(t *testing.T) {
	const (
		n      = 64
		pBlue  = 0.4
		trials = 1200
		z99    = 2.576
	)
	chain := New(n, 3)
	exact := chain.RedWinProbability(pBlue, 4000)

	winRate := func(engine dynamics.Engine) float64 {
		redWins := 0
		for i := 0; i < trials; i++ {
			src := rng.NewFrom(101, uint64(i))
			init := opinion.RandomConfig(n, pBlue, src)
			p, err := dynamics.New(graph.NewKn(n), dynamics.BestOfThree, init,
				dynamics.Options{Seed: src.Uint64(), Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			if p.Engine() != engine {
				t.Fatalf("requested engine %v, resolved %v", engine, p.Engine())
			}
			res := runTo(t, p, 4000)
			if res.Consensus && res.Winner == opinion.Red {
				redWins++
			}
		}
		return float64(redWins) / trials
	}

	mf := winRate(dynamics.EngineMeanField)
	gen := winRate(dynamics.EngineGeneral)

	se := math.Sqrt(exact*(1-exact)/trials) + 1e-9
	if d := math.Abs(mf - exact); d > z99*se {
		t.Errorf("mean-field red-win rate %v vs exact %v: |diff| %v > 99%% CI %v", mf, exact, d, z99*se)
	}
	if d := math.Abs(gen - exact); d > z99*se {
		t.Errorf("general red-win rate %v vs exact %v: |diff| %v > 99%% CI %v", gen, exact, d, z99*se)
	}
	// Engine-vs-engine: both empirical, so the difference carries two
	// independent Monte Carlo errors.
	if d := math.Abs(mf - gen); d > z99*se*math.Sqrt2 {
		t.Errorf("mean-field %v vs general %v: |diff| %v > 99%% CI %v", mf, gen, d, z99*se*math.Sqrt2)
	}
}

// TestMeanFieldMeanRoundsMatchesChain compares expected consensus time:
// the chain's absorption mean against the mean-field engine's empirical
// mean over many cheap trials.
func TestMeanFieldMeanRoundsMatchesChain(t *testing.T) {
	const (
		n      = 128
		pBlue  = 0.35
		trials = 1500
	)
	chain := New(n, 3)
	abs := chain.Absorb(chain.InitialDistribution(pBlue), 1e-12, 4000)

	sum := 0.0
	sumSq := 0.0
	for i := 0; i < trials; i++ {
		src := rng.NewFrom(202, uint64(i))
		init := opinion.RandomConfig(n, pBlue, src)
		p, err := dynamics.New(graph.NewKn(n), dynamics.BestOfThree, init,
			dynamics.Options{Seed: src.Uint64(), Engine: dynamics.EngineMeanField})
		if err != nil {
			t.Fatal(err)
		}
		r := float64(runTo(t, p, 4000).Rounds)
		sum += r
		sumSq += r * r
	}
	mean := sum / trials
	sd := math.Sqrt(sumSq/trials - mean*mean)
	se := sd/math.Sqrt(trials) + 1e-9
	if d := math.Abs(mean - abs.MeanRounds); d > 2.576*se {
		t.Errorf("mean rounds %v vs exact %v: |diff| %v > 99%% CI %v", mean, abs.MeanRounds, d, 2.576*se)
	}
}
