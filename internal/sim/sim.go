// Package sim holds the small trial-level helpers shared across layers.
// Trials are the repository's only unit of parallelism, and Each is the
// one pool that runs them: the root package's Runner.Stream runs every
// spec-described trial through it (and cancels in-flight trials at their
// next round boundary), and RunOutcomes runs independent trials of a
// hand-built simulation through it with one deterministic RNG stream per
// trial (the experiments that need a non-i.i.d. start or graphs outside
// the spec registry use it). Tally folds per-trial results into the
// order-independent aggregates the serve layer reports.
package sim

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/rng"
)

// Outcome is a generic per-trial record for experiments that measure more
// than one number.
type Outcome struct {
	// Rounds is the measured round count (or other primary metric).
	Rounds float64
	// Win reports whether the trial satisfied the experiment's success
	// predicate (e.g. "red won").
	Win bool
}

// Each runs fn(i) for the indices [0, n) on workers goroutines (0 =
// GOMAXPROCS, at most n), each claiming the next unclaimed index until
// none is left, and returns once every call has returned. Every index
// runs exactly once unless ctx is cancelled: a worker checks ctx before
// each claim, so after cancellation no further index is claimed, while
// calls already running finish. fn must be safe for concurrent use.
func Each(ctx context.Context, n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		next int
	)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// RunOutcomes executes n independent trials through Each on workers
// goroutines (0 = GOMAXPROCS) and returns the n outcomes in trial order.
// Trial i always receives the stream derived from (seed, i), so results
// are independent of scheduling and worker count.
func RunOutcomes(n int, seed uint64, workers int, trial func(i int, src *rng.Source) Outcome) []Outcome {
	if n <= 0 {
		return nil
	}
	out := make([]Outcome, n)
	Each(context.Background(), n, workers, func(i int) {
		out[i] = trial(i, rng.NewFrom(seed, uint64(i)))
	})
	return out
}

// Tally is a streaming aggregate over trial results: the serve layer uses
// one Tally per job to summarise its trials and merges per-cell tallies
// into sweep-level aggregates. The zero value is ready to use. Every field
// is order-independent (counts, sums, max), so a tally is a deterministic
// function of the multiset of results folded in regardless of completion
// order — aggregates built from deterministic trials are reproducible even
// when the trials finish out of order.
type Tally struct {
	// Trials is the number of results folded in.
	Trials int
	// Wins counts results whose success predicate held (e.g. "red won").
	Wins int
	// Consensus counts results that reached a monochromatic state.
	Consensus int
	// RoundSum and MaxRounds summarise the per-result round counts.
	RoundSum  int
	MaxRounds int
}

// Add folds one trial result into the tally.
func (t *Tally) Add(rounds int, win, consensus bool) {
	t.Trials++
	if win {
		t.Wins++
	}
	if consensus {
		t.Consensus++
	}
	t.RoundSum += rounds
	if rounds > t.MaxRounds {
		t.MaxRounds = rounds
	}
}

// Merge folds another tally in, so per-cell tallies combine into a
// sweep-level one.
func (t *Tally) Merge(o Tally) {
	t.Trials += o.Trials
	t.Wins += o.Wins
	t.Consensus += o.Consensus
	t.RoundSum += o.RoundSum
	if o.MaxRounds > t.MaxRounds {
		t.MaxRounds = o.MaxRounds
	}
}

// MeanRounds is the mean round count, or 0 for an empty tally.
func (t Tally) MeanRounds() float64 {
	if t.Trials == 0 {
		return 0
	}
	return float64(t.RoundSum) / float64(t.Trials)
}

// Wins counts the outcomes with Win set.
func Wins(outs []Outcome) int {
	w := 0
	for _, o := range outs {
		if o.Win {
			w++
		}
	}
	return w
}

// RoundsOf extracts the Rounds fields.
func RoundsOf(outs []Outcome) []float64 {
	xs := make([]float64, len(outs))
	for i, o := range outs {
		xs[i] = o.Rounds
	}
	return xs
}
