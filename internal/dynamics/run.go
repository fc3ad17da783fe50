package dynamics

import (
	"context"

	"repro/internal/opinion"
)

// Dynamic is one opinion dynamic as the run loop sees it. *Process (the
// synchronous dynamic, zealots included), *AsyncProcess (one Step is a
// sweep of n ticks) and *plurality.Process satisfy it directly. For the
// q-opinion dynamic, opinion 0 plays Red and every other opinion counts
// as Blue. Reads never mutate state, so the loop may call them freely
// between Steps.
type Dynamic interface {
	// Step advances one round.
	Step()
	// Round returns the number of completed rounds.
	Round() int
	// Blues returns the current number of Blue vertices.
	Blues() int
	// Consensus reports whether every vertex holds one opinion.
	Consensus() bool
	// Majority returns the leading opinion: the consensus colour once
	// consensus holds, otherwise the current majority (ties go to Red).
	Majority() opinion.Colour
}

// Result summarises a completed run.
type Result struct {
	// Consensus reports whether every vertex held one opinion when the run
	// stopped.
	Consensus bool
	// Winner is the consensus opinion when Consensus is true; otherwise the
	// majority opinion at stop time.
	Winner opinion.Colour
	// Rounds is the number of rounds executed.
	Rounds int
	// BlueTrajectory records the number of blue vertices after each round,
	// starting with the initial count (index 0).
	BlueTrajectory []int
}

// Run advances p until consensus or until maxRounds rounds have completed,
// whichever comes first, recording the blue count after every round.
// onRound, when non-nil, sees every recorded count — first the initial
// one, then one per executed round — on the calling goroutine. The context
// is checked between rounds; a cancelled run returns the partial result
// (trajectory up to the last completed round) together with ctx.Err().
func Run(ctx context.Context, p Dynamic, maxRounds int, onRound func(round, blues int)) (Result, error) {
	blues := p.Blues()
	res := Result{BlueTrajectory: []int{blues}}
	if onRound != nil {
		onRound(p.Round(), blues)
	}
	var err error
	for p.Round() < maxRounds && !p.Consensus() {
		if err = ctx.Err(); err != nil {
			break
		}
		p.Step()
		blues = p.Blues()
		res.BlueTrajectory = append(res.BlueTrajectory, blues)
		if onRound != nil {
			onRound(p.Round(), blues)
		}
	}
	res.Rounds = p.Round()
	res.Consensus = p.Consensus()
	res.Winner = p.Majority()
	return res, err
}

// majority is the two-party Majority rule on a blue count: Blue exactly
// when it holds a strict majority of the n vertices.
func majority(blues, n int) opinion.Colour {
	if 2*blues > n {
		return opinion.Blue
	}
	return opinion.Red
}
