package dynamics

import (
	"context"
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/opinion"
	"repro/internal/rng"
)

// runTo drives p through Run with no deadline and no observer.
func runTo(t testing.TB, p Dynamic, maxRounds int) Result {
	t.Helper()
	res, err := Run(context.Background(), p, maxRounds, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunCancelledBetweenRounds: a cancelled context stops the loop before
// the next round and returns the partial result with ctx.Err().
func TestRunCancelledBetweenRounds(t *testing.T) {
	g := graph.Cycle(512)
	init := opinion.RandomConfig(512, 0.5, rng.New(4))
	p, err := New(g, Voter, init, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := Run(ctx, p, 1000, func(round, _ int) {
		if round == 2 {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Rounds != 2 || len(res.BlueTrajectory) != 3 || p.Round() != 2 {
		t.Fatalf("partial result: rounds %d, trajectory %d, process round %d", res.Rounds, len(res.BlueTrajectory), p.Round())
	}
}
