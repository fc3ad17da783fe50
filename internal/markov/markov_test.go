package markov

import (
	"context"
	"math"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/opinion"
	"repro/internal/rng"
)

// runTo drives p through the shared run loop with no deadline.
func runTo(t *testing.T, p dynamics.Dynamic, maxRounds int) dynamics.Result {
	t.Helper()
	res, err := dynamics.Run(context.Background(), p, maxRounds, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNewPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"n too small": func() { New(1, 3) },
		"even k":      func() { New(10, 2) },
		"zero k":      func() { New(10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestBinomialPMFSumsToOne(t *testing.T) {
	for _, c := range []struct {
		n int
		p float64
	}{{0, 0.5}, {1, 0.3}, {10, 0}, {10, 1}, {50, 0.2}, {500, 0.7}} {
		pmf := binomialPMF(c.n, c.p)
		sum := 0.0
		for _, v := range pmf {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("Bin(%d,%v) pmf sums to %v", c.n, c.p, sum)
		}
	}
}

func TestBinomialPMFKnownValues(t *testing.T) {
	pmf := binomialPMF(2, 0.5)
	want := []float64{0.25, 0.5, 0.25}
	for i := range want {
		if math.Abs(pmf[i]-want[i]) > 1e-12 {
			t.Errorf("pmf[%d] = %v, want %v", i, pmf[i], want[i])
		}
	}
}

func TestTransitionRowsAreDistributions(t *testing.T) {
	c := New(30, 3)
	for b := 0; b <= 30; b++ {
		row := c.transitionRow(b)
		sum := 0.0
		for _, v := range row {
			if v < -1e-15 {
				t.Fatalf("negative transition mass at b=%d", b)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("row %d sums to %v", b, sum)
		}
	}
}

func TestAbsorbingStates(t *testing.T) {
	c := New(20, 3)
	row0 := c.transitionRow(0)
	if math.Abs(row0[0]-1) > 1e-12 {
		t.Error("all-red state not absorbing")
	}
	rowN := c.transitionRow(20)
	if math.Abs(rowN[20]-1) > 1e-12 {
		t.Error("all-blue state not absorbing")
	}
}

func TestStepDistributionConservesMass(t *testing.T) {
	c := New(40, 3)
	pi := c.InitialDistribution(0.4)
	for t2 := 0; t2 < 10; t2++ {
		pi = c.StepDistribution(pi)
		sum := 0.0
		for _, v := range pi {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("mass %v after %d steps", sum, t2+1)
		}
	}
}

func TestStepDistributionPanicsOnBadLength(t *testing.T) {
	c := New(10, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("bad length did not panic")
		}
	}()
	c.StepDistribution(make([]float64, 5))
}

func TestPointDistribution(t *testing.T) {
	c := New(10, 3)
	pi := c.PointDistribution(4)
	if pi[4] != 1 {
		t.Error("point mass misplaced")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range point did not panic")
		}
	}()
	c.PointDistribution(11)
}

func TestSymmetryAtHalf(t *testing.T) {
	// From exactly b = n/2... the chain is colour-symmetric: red and blue
	// win with (almost) equal probability. (Self-exclusion gives red a
	// tiny edge at even n: a blue vertex sees b−1 blues but a red vertex
	// sees b of n−1 — so demand near-equality, slightly favouring red.)
	c := New(20, 3)
	res := c.Absorb(c.PointDistribution(10), 1e-12, 2000)
	if res.Escaped > 1e-9 {
		t.Fatalf("mass escaped: %v", res.Escaped)
	}
	if math.Abs(res.RedWins+res.BlueWins-1) > 1e-9 {
		t.Fatalf("wins sum to %v", res.RedWins+res.BlueWins)
	}
	if res.RedWins < res.BlueWins-1e-9 {
		t.Errorf("red %v should not trail blue %v from the midpoint", res.RedWins, res.BlueWins)
	}
	if math.Abs(res.RedWins-0.5) > 0.05 {
		t.Errorf("red wins %v from midpoint, want ~0.5", res.RedWins)
	}
}

func TestMajorityAdvantageExact(t *testing.T) {
	// Red-majority starts must give red a large exact advantage.
	// At n = 50 the initial binomial fluctuation still flips the sampled
	// majority with a few percent probability (the exact value is 0.9475),
	// so the bound is 0.9 rather than "w.h.p.".
	c := New(50, 3)
	p := c.RedWinProbability(0.35, 2000)
	if p < 0.9 {
		t.Errorf("exact red win probability %v at pBlue=0.35", p)
	}
	// Colour symmetry: the blue-majority start mirrors it.
	q := c.RedWinProbability(0.65, 2000)
	if math.Abs(p+q-1) > 1e-6 {
		t.Errorf("symmetry broken: %v + %v != 1", p, q)
	}
}

func TestMonotoneInInitialBlue(t *testing.T) {
	c := New(30, 3)
	prev := 1.1
	for _, pb := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		p := c.RedWinProbability(pb, 1000)
		if p > prev+1e-9 {
			t.Fatalf("red win probability not monotone at pBlue=%v", pb)
		}
		prev = p
	}
}

func TestExactMatchesSimulation(t *testing.T) {
	// The exact chain must agree with the simulator on K_n within Monte
	// Carlo error. The general per-vertex engine is forced so this stays a
	// genuine validation: the mean-field fast path samples this chain's own
	// kernel (it is compared separately in engines_test.go).
	const n = 64
	const pBlue = 0.4
	c := New(n, 3)
	exact := c.RedWinProbability(pBlue, 2000)

	const trials = 400
	redWins := 0
	for i := 0; i < trials; i++ {
		src := rng.NewFrom(7, uint64(i))
		init := opinion.RandomConfig(n, pBlue, src)
		p, err := dynamics.New(graph.NewKn(n), dynamics.BestOfThree, init, dynamics.Options{Seed: src.Uint64(), Engine: dynamics.EngineGeneral})
		if err != nil {
			t.Fatal(err)
		}
		res := runTo(t, p, 2000)
		if res.Consensus && res.Winner == opinion.Red {
			redWins++
		}
	}
	emp := float64(redWins) / trials
	se := math.Sqrt(exact*(1-exact)/trials) + 1e-9
	if math.Abs(emp-exact) > 5*se+0.02 {
		t.Errorf("simulation %v vs exact %v (se %v)", emp, exact, se)
	}
}

func TestMeanRoundsReasonable(t *testing.T) {
	c := New(128, 3)
	res := c.Absorb(c.InitialDistribution(0.35), 1e-12, 2000)
	if res.Escaped > 1e-9 {
		t.Fatalf("escaped mass %v", res.Escaped)
	}
	if res.MeanRounds < 2 || res.MeanRounds > 20 {
		t.Errorf("mean rounds %v implausible for K_128", res.MeanRounds)
	}
}

func TestVoterChainMatchesClassicalWinProbability(t *testing.T) {
	// For the voter model (k = 1) on K_n the martingale argument gives
	// P(blue wins | B_0 = b) = b/n... on a regular graph. The chain with
	// self-exclusion keeps this *approximately*: check within 2%.
	c := New(40, 1)
	res := c.Absorb(c.PointDistribution(10), 1e-10, 200000)
	if res.Escaped > 1e-6 {
		t.Fatalf("voter chain escaped mass %v", res.Escaped)
	}
	if math.Abs(res.BlueWins-0.25) > 0.02 {
		t.Errorf("voter blue-win probability %v, want ~0.25", res.BlueWins)
	}
}

func BenchmarkStepDistribution(b *testing.B) {
	c := New(256, 3)
	pi := c.InitialDistribution(0.4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pi = c.StepDistribution(pi)
	}
}

func BenchmarkAbsorb(b *testing.B) {
	c := New(128, 3)
	pi := c.InitialDistribution(0.4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Absorb(pi, 1e-12, 1000)
	}
}
