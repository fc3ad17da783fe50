package plurality_test

import (
	"context"
	"fmt"

	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/opinion"
	"repro/internal/plurality"
	"repro/internal/rng"
)

// Five opinions on a complete graph, opinion 0 holding 30% of the vertices
// (1.5x the balanced share): the q-opinion Best-of-Three dynamic drives the
// initial plurality to consensus.
func Example() {
	g := graph.NewKn(2048)
	init := plurality.RandomBiasedConfig(2048, 5, 0.30, rng.New(1))
	p, err := plurality.New(g, init, plurality.Options{Seed: 2, Tie: plurality.TieRandomSample})
	if err != nil {
		panic(err)
	}
	// dynamics.Run reads opinion 0 as Red and every other opinion as Blue.
	res, err := dynamics.Run(context.Background(), p, 1000, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("consensus:", res.Consensus)
	fmt.Println("winner is the initial plurality:", res.Winner == opinion.Red)
	fmt.Println("double-log-fast:", res.Rounds < 30)
	// Output:
	// consensus: true
	// winner is the initial plurality: true
	// double-log-fast: true
}
