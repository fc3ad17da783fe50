package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestRunBestOfThreeHappyPath(t *testing.T) {
	g := graph.RandomRegular(1024, 64, rng.New(1))
	rep, err := Run(context.Background(), g, 0.1, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consensus || !rep.RedWon {
		t.Errorf("report = %+v", rep)
	}
	if rep.Rounds > 30 {
		t.Errorf("rounds = %d, expected double-log", rep.Rounds)
	}
	if rep.PredictedRounds < 3 {
		t.Errorf("prediction = %d implausible", rep.PredictedRounds)
	}
	if len(rep.BlueTrajectory) != rep.Rounds+1 {
		t.Errorf("trajectory length %d for %d rounds", len(rep.BlueTrajectory), rep.Rounds)
	}
	if !rep.Precondition.Satisfied() {
		t.Errorf("dense instance should satisfy preconditions: %v", rep.Precondition)
	}
}

func TestRunRejectsBadDelta(t *testing.T) {
	g := graph.Complete(8)
	for _, d := range []float64{-0.1, 0.6, math.NaN()} {
		if _, err := Run(context.Background(), g, d, Options{}); err == nil {
			t.Errorf("delta %v accepted", d)
		}
	}
}

func TestRunPropagatesEngineErrors(t *testing.T) {
	iso := graph.FromEdges(3, [][2]int{{0, 1}}, "isolated")
	if _, err := Run(context.Background(), iso, 0.1, Options{}); err == nil {
		t.Error("isolated vertex not rejected")
	}
}

func TestRunWithBaselineRule(t *testing.T) {
	g := graph.Complete(64)
	rep, err := Run(context.Background(), g, 0.2, Options{Seed: 3, Rule: dynamics.BestOfTwo, MaxRounds: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consensus {
		t.Errorf("best-of-2 on K64 did not converge: %+v", rep.Rounds)
	}
}

func TestRunRespectsMaxRounds(t *testing.T) {
	g := graph.Cycle(64)
	rep, err := Run(context.Background(), g, 0.0, Options{Seed: 4, MaxRounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rounds > 5 {
		t.Errorf("rounds = %d exceeds cap", rep.Rounds)
	}
}

func TestCheckPreconditionDense(t *testing.T) {
	g := graph.RandomRegular(4096, 256, rng.New(5))
	p := CheckPrecondition(g, 0.1)
	if !p.DenseEnough || !p.ImbalanceEnough || !p.Satisfied() {
		t.Errorf("precondition = %+v", p)
	}
	if p.Alpha < 0.6 || p.Alpha > 0.7 {
		t.Errorf("alpha = %v, want ~2/3", p.Alpha)
	}
	if p.NoiseFloor <= 0 {
		t.Error("noise floor not set")
	}
}

func TestCheckPreconditionSparse(t *testing.T) {
	g := graph.Cycle(65536)
	p := CheckPrecondition(g, 0.1)
	if p.DenseEnough {
		t.Errorf("cycle should fail the density gate: %+v", p)
	}
	if p.Satisfied() {
		t.Error("Satisfied on a sparse instance")
	}
}

func TestCheckPreconditionTinyDelta(t *testing.T) {
	g := graph.RandomRegular(4096, 256, rng.New(6))
	p := CheckPrecondition(g, 1e-6)
	if p.ImbalanceEnough {
		t.Errorf("delta 1e-6 should fail the (log d)^-1 gate: %+v", p)
	}
}

func TestCheckPreconditionDegenerate(t *testing.T) {
	p := CheckPrecondition(graph.NewBuilder(0).Build(), 0.1)
	if p.Satisfied() {
		t.Error("empty graph should not satisfy preconditions")
	}
}

func TestPreconditionString(t *testing.T) {
	g := graph.Complete(100)
	s := CheckPrecondition(g, 0.1).String()
	for _, frag := range []string{"n=100", "d=99", "alpha=", "delta="} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() = %q missing %q", s, frag)
		}
	}
}
