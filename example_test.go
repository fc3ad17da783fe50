package repro_test

import (
	"context"
	"fmt"

	"repro"
)

// Describe a run declaratively and execute it with the v2 Runner. The
// same spec, serialised to JSON, runs identically through `bo3sim -spec`
// and `POST /v1/runs` — per-trial outcomes are byte-identical across all
// three entry points.
func ExampleNewRunner() {
	runner, err := repro.NewRunner(repro.RunSpec{
		Graph:  repro.GraphSpec{Family: "random-regular", N: 4096, D: 128, Seed: 1},
		Delta:  0.1,
		Trials: 4,
		Seed:   2,
	})
	if err != nil {
		panic(err)
	}
	report, err := runner.Run(context.Background())
	if err != nil {
		panic(err)
	}
	fmt.Println("red wins:     ", report.RedWins)
	fmt.Println("consensus:    ", report.ConsensusCount)
	fmt.Println("dense enough: ", report.Precondition.DenseEnough)
	fmt.Println("few rounds:   ", report.MaxRounds <= report.PredictedRounds+5)
	// Output:
	// red wins:      4
	// consensus:     4
	// dense enough:  true
	// few rounds:    true
}

// Consume trial outcomes as they complete instead of waiting for the
// full report: the stream delivers results in completion order, and every
// trial's outcome is a deterministic function of the spec alone.
func ExampleRunner_Stream() {
	runner, err := repro.NewRunner(repro.RunSpec{
		Graph:  repro.GraphSpec{Family: "complete-virtual", N: 1 << 14},
		Delta:  0.1,
		Trials: 8,
		Seed:   7,
	})
	if err != nil {
		panic(err)
	}
	stream, err := runner.Stream(context.Background())
	if err != nil {
		panic(err)
	}
	redWins := 0
	for res := range stream {
		if res.Err == nil && res.Report.RedWon {
			redWins++
		}
	}
	fmt.Println("red wins:", redWins)
	// Output:
	// red wins: 8
}

// Check Theorem 1's hypotheses without running anything: the cycle fails
// the density gate, a dense regular graph passes it.
func ExampleCheckPrecondition() {
	dense := repro.RandomRegular(4096, 256, repro.NewRNG(3))
	sparse := repro.Cycle(4096)
	fmt.Println("dense graph satisfies Theorem 1:", repro.CheckPrecondition(dense, 0.1).Satisfied())
	fmt.Println("cycle satisfies Theorem 1:      ", repro.CheckPrecondition(sparse, 0.1).Satisfied())
	// Output:
	// dense graph satisfies Theorem 1: true
	// cycle satisfies Theorem 1:       false
}
