package sim

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/rng"
)

// TestEachRunsEveryIndexOnce: with a live context every index in [0, n)
// runs exactly once, whether the pool has one worker, a few, or more
// workers than indices.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	const n = 50
	for _, workers := range []int{1, 3, n + 5} {
		var runs [n]atomic.Int32
		Each(context.Background(), n, workers, func(i int) { runs[i].Add(1) })
		for i := range runs {
			if got := runs[i].Load(); got != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
	Each(context.Background(), 0, 3, func(int) { t.Error("n = 0 ran an index") })
}

// TestEachClaimsNothingAfterCancel: the first call of each worker meets
// the others at a barrier, so the first `workers` indices are in flight
// together; index 0 then cancels the context, and no worker may claim
// another index once its call returns. A context cancelled before Each
// runs no index at all.
func TestEachClaimsNothingAfterCancel(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		var (
			started   sync.WaitGroup
			cancelled = make(chan struct{})
			mu        sync.Mutex
			ran       []int
		)
		started.Add(workers)
		Each(ctx, n, workers, func(i int) {
			mu.Lock()
			ran = append(ran, i)
			mu.Unlock()
			if i >= workers {
				return
			}
			started.Done()
			started.Wait()
			if i == 0 {
				cancel()
				close(cancelled)
			}
			<-cancelled
		})
		if len(ran) != workers {
			t.Errorf("workers=%d: ran indices %v, want exactly the first %d", workers, ran, workers)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 3, n + 5} {
		Each(ctx, n, workers, func(i int) { t.Errorf("workers=%d: index %d ran after cancel", workers, i) })
	}
}

func TestRunTrialsOrderAndCount(t *testing.T) {
	out := RunOutcomes(100, 7, 4, func(i int, src *rng.Source) Outcome {
		return Outcome{Rounds: float64(i) * 2}
	})
	if len(out) != 100 {
		t.Fatalf("len = %d", len(out))
	}
	for i, o := range out {
		if o.Rounds != float64(i)*2 {
			t.Fatalf("out[%d] = %v", i, o.Rounds)
		}
	}
}

// drawOutcome is a trial whose outcome depends only on its RNG stream.
func drawOutcome(i int, src *rng.Source) Outcome {
	return Outcome{Rounds: float64(src.Uint64n(1 << 30)), Win: src.Uint64n(2) == 0}
}

func TestRunTrialsDeterministicAcrossWorkerCounts(t *testing.T) {
	a := RunOutcomes(50, 42, 1, drawOutcome)
	b := RunOutcomes(50, 42, 8, drawOutcome)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trial %d differs across worker counts: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestRunTrialsSeedSensitivity(t *testing.T) {
	a := RunOutcomes(20, 1, 2, drawOutcome)
	b := RunOutcomes(20, 2, 2, drawOutcome)
	same := 0
	for i := range a {
		if a[i].Rounds == b[i].Rounds {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds matched on %d/20 trials", same)
	}
}

func TestRunTrialsEdgeCases(t *testing.T) {
	if out := RunOutcomes(0, 1, 4, nil); out != nil {
		t.Error("zero trials should return nil")
	}
	if out := RunOutcomes(-5, 1, 4, nil); out != nil {
		t.Error("negative trials should return nil")
	}
	// workers > n must not deadlock or skip trials.
	out := RunOutcomes(3, 1, 100, func(i int, src *rng.Source) Outcome { return Outcome{Win: true} })
	if len(out) != 3 || Wins(out) != 3 {
		t.Errorf("len = %d, wins = %d", len(out), Wins(out))
	}
}

func TestRunOutcomesAndHelpers(t *testing.T) {
	outs := RunOutcomes(10, 3, 2, func(i int, src *rng.Source) Outcome {
		return Outcome{Rounds: float64(i), Win: i%2 == 0}
	})
	if len(outs) != 10 {
		t.Fatalf("len = %d", len(outs))
	}
	if w := Wins(outs); w != 5 {
		t.Errorf("Wins = %d", w)
	}
	rounds := RoundsOf(outs)
	for i, r := range rounds {
		if r != float64(i) {
			t.Fatalf("rounds[%d] = %v", i, r)
		}
	}
	if out := RunOutcomes(0, 1, 1, nil); out != nil {
		t.Error("zero outcomes should return nil")
	}
}

func TestTallyAddAndMerge(t *testing.T) {
	results := []struct {
		rounds         int
		win, consensus bool
	}{
		{5, true, true}, {9, false, true}, {3, true, false}, {12, true, true},
	}
	var whole Tally
	for _, r := range results {
		whole.Add(r.rounds, r.win, r.consensus)
	}
	if whole.Trials != 4 || whole.Wins != 3 || whole.Consensus != 3 {
		t.Errorf("counts = %+v, want 4 trials, 3 wins, 3 consensus", whole)
	}
	if whole.RoundSum != 29 || whole.MaxRounds != 12 {
		t.Errorf("rounds = %+v, want sum 29, max 12", whole)
	}
	if got, want := whole.MeanRounds(), 29.0/4; got != want {
		t.Errorf("MeanRounds = %v, want %v", got, want)
	}

	// Merging two halves reproduces the whole regardless of split point.
	for split := 0; split <= len(results); split++ {
		var a, b Tally
		for _, r := range results[:split] {
			a.Add(r.rounds, r.win, r.consensus)
		}
		for _, r := range results[split:] {
			b.Add(r.rounds, r.win, r.consensus)
		}
		a.Merge(b)
		if a != whole {
			t.Errorf("split %d: merged = %+v, want %+v", split, a, whole)
		}
	}

	if (Tally{}).MeanRounds() != 0 {
		t.Error("empty tally MeanRounds != 0")
	}
}
