package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestVariantSyncByteIdentical is the refactor guard: routing the
// synchronous default through the variant dispatch must reproduce the
// pre-variant Run byte for byte — same trajectory, same outcome — whether
// the variant is the zero value or spelled out.
func TestVariantSyncByteIdentical(t *testing.T) {
	g := graph.RandomRegular(256, 16, rng.New(3))
	base, err := Run(context.Background(), g, 0.1, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	named, err := Run(context.Background(), g, 0.1, Options{Seed: 11, Variant: Variant{Name: VariantSync}})
	if err != nil {
		t.Fatal(err)
	}
	if base.Rounds != named.Rounds || base.RedWon != named.RedWon || base.Consensus != named.Consensus {
		t.Fatalf("explicit sync diverged: %+v vs %+v", base, named)
	}
	if len(base.BlueTrajectory) != len(named.BlueTrajectory) {
		t.Fatalf("trajectory lengths differ: %d vs %d", len(base.BlueTrajectory), len(named.BlueTrajectory))
	}
	for i := range base.BlueTrajectory {
		if base.BlueTrajectory[i] != named.BlueTrajectory[i] {
			t.Fatalf("trajectories diverge at round %d: %d vs %d", i, base.BlueTrajectory[i], named.BlueTrajectory[i])
		}
	}
}

// TestVariantDeterminism: every variant's Run is a pure function of the
// seed — two runs with identical options produce identical trajectories.
func TestVariantDeterminism(t *testing.T) {
	g := graph.RandomRegular(128, 8, rng.New(3))
	for _, v := range []Variant{
		{Name: VariantAsync},
		{Name: VariantStubborn, StubbornFrac: 0.1},
		{Name: VariantPlurality, Q: 4},
	} {
		t.Run(v.Name, func(t *testing.T) {
			a, err := Run(context.Background(), g, 0.1, Options{Seed: 5, MaxRounds: 200, Variant: v})
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(context.Background(), g, 0.1, Options{Seed: 5, MaxRounds: 200, Variant: v})
			if err != nil {
				t.Fatal(err)
			}
			if a.Rounds != b.Rounds || a.RedWon != b.RedWon || a.Consensus != b.Consensus {
				t.Fatalf("non-deterministic: %+v vs %+v", a, b)
			}
			for i := range a.BlueTrajectory {
				if a.BlueTrajectory[i] != b.BlueTrajectory[i] {
					t.Fatalf("trajectories diverge at round %d", i)
				}
			}
		})
	}
}

// TestVariantDispatchRejections: an unknown variant name is an error, not
// a panic. Parameter and engine rejections live in the spec registry
// (spec's TestVariantValidation and TestVariantEngineRejections).
func TestVariantDispatchRejections(t *testing.T) {
	t.Run("unknown", func(t *testing.T) {
		_, err := Run(context.Background(), graph.NewKn(64), 0.1, Options{Seed: 1, Variant: Variant{Name: "turbo"}})
		if err == nil || !strings.Contains(err.Error(), "unknown variant") {
			t.Fatalf("Run() error = %v, want containing %q", err, "unknown variant")
		}
	})
}

// TestStubbornSuppressesRed: the E15 adversary in the forward dynamic. A
// frozen Blue zealot set must cut the initial Red majority's win rate far
// below the plain dynamic's on the same instances — with 30% of vertices
// frozen Blue the effective initial Blue mass is ~0.62, so Red should
// essentially never win, while the plain dynamic wins most trials.
func TestStubbornSuppressesRed(t *testing.T) {
	g := graph.RandomRegular(256, 16, rng.New(3))
	const trials = 120
	redWins := func(v Variant) int {
		wins := 0
		for i := 0; i < trials; i++ {
			rep, err := Run(context.Background(), g, 0.05, Options{Seed: rng.ChildSeed(77, uint64(i)), MaxRounds: 400, Variant: v})
			if err != nil {
				t.Fatal(err)
			}
			if rep.RedWon {
				wins++
			}
		}
		return wins
	}
	plain := redWins(Variant{})
	stub := redWins(Variant{Name: VariantStubborn, StubbornFrac: 0.3})
	if plain < trials/2 {
		t.Fatalf("plain dynamic won only %d/%d for red; instance too weak for the comparison", plain, trials)
	}
	if stub > trials/10 {
		t.Fatalf("stubborn dynamic let red win %d/%d; zealots should suppress the majority (plain won %d)", stub, trials, plain)
	}
}

// TestAsyncConsensusOnComplete: the sequential dynamic still reaches
// consensus quickly on K_n at a clear imbalance, and its Rounds accounting
// counts sweeps (so it stays comparable to the synchronous round counts).
func TestAsyncConsensusOnComplete(t *testing.T) {
	g := graph.NewKn(256)
	rep, err := Run(context.Background(), g, 0.2, Options{Seed: 9, MaxRounds: 400, Variant: Variant{Name: VariantAsync}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consensus || !rep.RedWon {
		t.Fatalf("async at delta 0.2 on K_256: %+v", rep)
	}
	if rep.Rounds > 100 {
		t.Fatalf("async took %d sweeps; expected fast convergence", rep.Rounds)
	}
	if len(rep.BlueTrajectory) != rep.Rounds+1 {
		t.Fatalf("trajectory length %d for %d sweeps", len(rep.BlueTrajectory), rep.Rounds)
	}
}
