package repro

import (
	"context"
	"testing"
)

// runSpec executes s through the spec-validated Runner.
func runSpec(t *testing.T, s RunSpec) *RunReport {
	t.Helper()
	r, err := NewRunner(s)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestPublicAPIEndToEnd(t *testing.T) {
	gs := GraphSpec{Family: "random-regular", N: 512, D: 32, Seed: 1}
	rep := runSpec(t, RunSpec{Graph: gs, Delta: 0.1, Seed: 2})
	if rep.ConsensusCount != 1 || rep.RedWins != 1 {
		t.Errorf("report = %+v", rep.Outcomes)
	}
	if !CheckPrecondition(RandomRegular(512, 32, NewRNG(1)), 0.1).DenseEnough {
		t.Error("dense instance failed the density check")
	}
}

func TestPublicAPIVirtualComplete(t *testing.T) {
	rep := runSpec(t, RunSpec{Graph: GraphSpec{Family: "complete-virtual", N: 1 << 14}, Delta: 0.05, Seed: 3})
	if rep.RedWins != 1 || rep.MaxRounds > 20 {
		t.Errorf("K_16384: rounds=%d redWins=%d", rep.MaxRounds, rep.RedWins)
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	g := GraphSpec{Family: "complete", N: 128}
	rep := runSpec(t, RunSpec{Graph: g, Delta: 0.2, Seed: 4, Rule: &RuleSpec{K: 2}, MaxRounds: 5000})
	if rep.ConsensusCount != 1 {
		t.Error("best-of-2 did not converge on K128")
	}
	repv := runSpec(t, RunSpec{Graph: g, Delta: 0.2, Seed: 5, Rule: &RuleSpec{K: 1}, MaxRounds: 100000})
	if repv.ConsensusCount != 1 {
		t.Error("voter model did not converge on K128")
	}
}

func TestPublicAPIGenerators(t *testing.T) {
	src := NewRNG(6)
	if g := Gnp(200, 0.1, src); g.N() != 200 {
		t.Error("Gnp wrong size")
	}
	if g := DenseMinDegree(256, 0.5, src); g.MinDegree() < 16 {
		t.Error("DenseMinDegree too sparse")
	}
	if g := Cycle(10); g.M() != 10 {
		t.Error("Cycle wrong")
	}
	if g := Torus2D(4, 4); g.N() != 16 {
		t.Error("Torus wrong")
	}
	if g := Hypercube(3); g.N() != 8 {
		t.Error("Hypercube wrong")
	}
	if g := SBM(50, 50, 0.3, 0.01, src); g.N() != 100 {
		t.Error("SBM wrong")
	}
}
