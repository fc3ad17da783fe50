package dynamics_test

import (
	"context"
	"fmt"

	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/opinion"
	"repro/internal/rng"
)

// One full Best-of-Three run on a dense random regular graph: a 40% blue
// start collapses to red consensus in a handful of rounds.
func ExampleRun() {
	g := graph.RandomRegular(1024, 64, rng.New(1))
	init := opinion.RandomConfig(1024, 0.4, rng.New(2))
	p, err := dynamics.New(g, dynamics.BestOfThree, init, dynamics.Options{Seed: 3})
	if err != nil {
		panic(err)
	}
	res, err := dynamics.Run(context.Background(), p, 100, nil)
	if err != nil {
		panic(err)
	}
	fmt.Println("consensus:", res.Consensus)
	fmt.Println("winner:   ", res.Winner)
	fmt.Println("fast:     ", res.Rounds < 20)
	// Output:
	// consensus: true
	// winner:    R
	// fast:      true
}

// Protocol rules are value types; Name renders the full configuration.
func ExampleRule_Name() {
	fmt.Println(dynamics.BestOfThree.Name())
	fmt.Println(dynamics.BestOfTwo.Name())
	fmt.Println(dynamics.Rule{K: 3, Noise: 0.05}.Name())
	// Output:
	// best-of-3
	// best-of-2/keep
	// best-of-3/noise=0.05
}
