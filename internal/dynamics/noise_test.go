package dynamics

import (
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/opinion"
	"repro/internal/rng"
)

func TestNoiseValidation(t *testing.T) {
	if err := (Rule{K: 3, Noise: -0.1}).Validate(); err == nil {
		t.Error("negative noise accepted")
	}
	if err := (Rule{K: 3, Noise: 0.6}).Validate(); err == nil {
		t.Error("noise > 1/2 accepted")
	}
	if err := (Rule{K: 3, Noise: math.NaN()}).Validate(); err == nil {
		t.Error("NaN noise accepted")
	}
	if err := (Rule{K: 3, Noise: 0.5}).Validate(); err != nil {
		t.Errorf("noise = 1/2 rejected: %v", err)
	}
}

func TestNoiseName(t *testing.T) {
	got := (Rule{K: 3, Noise: 0.05}).Name()
	if !strings.Contains(got, "noise=0.05") {
		t.Errorf("Name = %q", got)
	}
}

func TestZeroNoiseMatchesNoiselessTrajectory(t *testing.T) {
	g := graph.RandomRegular(128, 8, rng.New(1))
	init := opinion.RandomConfig(128, 0.35, rng.New(2))
	a, _ := New(g, Rule{K: 3}, init, Options{Seed: 3})
	b, _ := New(g, Rule{K: 3, Noise: 0}, init, Options{Seed: 3})
	for i := 0; i < 10; i++ {
		a.Step()
		b.Step()
		if !a.Config().Equal(b.Config()) {
			t.Fatalf("noise=0 diverged from noiseless at round %d", i+1)
		}
	}
}

func TestSmallNoiseStillConvergesToMajority(t *testing.T) {
	// Mild noise does not stop the majority from winning on a dense graph,
	// though consensus is no longer absorbing: check majority dominance.
	g := graph.RandomRegular(1024, 64, rng.New(4))
	init := opinion.RandomConfig(1024, 0.35, rng.New(5))
	p, err := New(g, Rule{K: 3, Noise: 0.02}, init, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		p.Step()
	}
	if frac := p.Config().BlueFraction(); frac > 0.1 {
		t.Errorf("blue fraction %v after 40 noisy rounds", frac)
	}
}

func TestHeavyNoiseDestroysConsensus(t *testing.T) {
	// At noise 1/2 every sample is a coin flip: the configuration stays
	// near half-half regardless of the initial majority.
	g := graph.RandomRegular(1024, 64, rng.New(7))
	init := opinion.RandomConfig(1024, 0.2, rng.New(8))
	p, err := New(g, Rule{K: 3, Noise: 0.5}, init, Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		p.Step()
	}
	frac := p.Config().BlueFraction()
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("blue fraction %v at max noise, want ~0.5", frac)
	}
}

func TestNoiseKeepsConfigurationDrifting(t *testing.T) {
	// From red consensus, noise keeps reintroducing blues: consensus is
	// not absorbing any more.
	g := graph.Complete(256)
	init := opinion.NewConfig(256) // all red
	p, err := New(g, Rule{K: 3, Noise: 0.1}, init, Options{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	sawBlue := false
	for i := 0; i < 20 && !sawBlue; i++ {
		p.Step()
		if p.Config().Blues() > 0 {
			sawBlue = true
		}
	}
	if !sawBlue {
		t.Error("noise never reintroduced a blue opinion")
	}
}
