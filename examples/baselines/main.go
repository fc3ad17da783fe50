// Baselines: the introduction's comparison between the voter model
// (Best-of-1), Best-of-2 and Best-of-3 on the same workload — who wins, and
// how fast. The voter model wins Red only in proportion to the initial Red
// share and needs Θ(n) rounds; Best-of-2/3 amplify the majority and finish
// in O(log log n).
//
//	go run ./examples/baselines
package main

import (
	"context"
	"fmt"

	"repro"
)

func main() {
	const (
		n      = 2048
		delta  = 0.1 // 60% red, 40% blue in expectation
		trials = 20
	)

	fmt.Printf("protocol comparison on K_%d, delta=%.2f, %d trials\n\n", n, delta, trials)
	fmt.Printf("%-16s %12s %10s %12s\n", "protocol", "mean rounds", "red wins", "consensus")

	for _, rule := range []*repro.RuleSpec{{K: 1}, {K: 2, Tie: "keep"}, {K: 3}} {
		budget := 4000
		if rule.K == 1 {
			budget = 20 * n // voter model needs Θ(n) rounds; cap generously
		}
		runner, err := repro.NewRunner(repro.RunSpec{
			Graph:     repro.GraphSpec{Family: "complete-virtual", N: n},
			Delta:     delta,
			Trials:    trials,
			MaxRounds: budget,
			Rule:      rule,
		})
		if err != nil {
			panic(err)
		}
		rep, err := runner.Run(context.Background())
		if err != nil {
			panic(err)
		}
		fmt.Printf("%-16s %12.1f %7d/%d %9d/%d\n",
			rep.RuleName, rep.MeanRounds, rep.RedWins, trials, rep.ConsensusCount, trials)
	}

	fmt.Println()
	fmt.Println("Expected shape (paper, introduction): the voter model is orders of")
	fmt.Println("magnitude slower and only wins red with probability ~(1/2 + delta);")
	fmt.Println("best-of-2 and best-of-3 always drive the initial majority to victory")
	fmt.Println("in a handful of rounds.")
}
