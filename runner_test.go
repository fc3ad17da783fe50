package repro_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro"
)

func testSpec(trials int) repro.RunSpec {
	return repro.RunSpec{
		Graph:  repro.GraphSpec{Family: "random-regular", N: 256, D: 8, Seed: 3},
		Delta:  0.1,
		Trials: trials,
		Seed:   11,
	}
}

// TestRunnerDeterministic: Run is a pure function of the spec — repeated
// runs, and a separately constructed runner, agree outcome for outcome.
func TestRunnerDeterministic(t *testing.T) {
	r1, err := repro.NewRunner(testSpec(5))
	if err != nil {
		t.Fatal(err)
	}
	a, err := r1.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := r1.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := repro.NewRunner(testSpec(5), repro.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	c, err := r2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Outcomes, b.Outcomes) || !reflect.DeepEqual(a.Outcomes, c.Outcomes) {
		t.Errorf("outcomes differ across identical specs:\n%+v\n%+v\n%+v", a.Outcomes, b.Outcomes, c.Outcomes)
	}
	if a.RedWins+a.ConsensusCount == 0 || a.MeanRounds <= 0 {
		t.Errorf("implausible aggregate: %+v", a)
	}
}

// TestRunnerStreamMatchesRun: the stream delivers exactly the Run
// outcomes, keyed by trial index.
func TestRunnerStreamMatchesRun(t *testing.T) {
	r, err := repro.NewRunner(testSpec(6))
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	stream, err := r.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for res := range stream {
		if res.Err != nil {
			t.Fatalf("trial %d: %v", res.Trial, res.Err)
		}
		seen++
		w := want.Outcomes[res.Trial]
		if res.Seed != w.Seed || res.Report.RedWon != w.RedWon || res.Report.Rounds != w.Rounds {
			t.Errorf("trial %d stream result %+v disagrees with run outcome %+v", res.Trial, res.Report, w)
		}
	}
	if seen != 6 {
		t.Errorf("stream delivered %d results, want 6", seen)
	}
}

// TestRunnerObserver: per-round callbacks replay each trial's trajectory
// exactly.
func TestRunnerObserver(t *testing.T) {
	var mu sync.Mutex
	observed := map[int][]int{} // trial -> blue counts in call order
	r, err := repro.NewRunner(testSpec(3), repro.WithObserver(func(trial, round, blues int) {
		mu.Lock()
		defer mu.Unlock()
		if round != len(observed[trial]) {
			t.Errorf("trial %d: round %d arrived out of order (have %d)", trial, round, len(observed[trial]))
		}
		observed[trial] = append(observed[trial], blues)
	}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, report := range rep.Reports {
		if !reflect.DeepEqual(observed[i], report.BlueTrajectory) {
			t.Errorf("trial %d: observer saw %v, trajectory is %v", i, observed[i], report.BlueTrajectory)
		}
	}
}

// TestRunnerCancellation: a cancelled context surfaces as an error from
// Run, and the stream still closes.
func TestRunnerCancellation(t *testing.T) {
	// A cycle at δ = 0 will not reach consensus: the run burns its full
	// budget, giving cancellation something to interrupt.
	s := repro.RunSpec{
		Graph:     repro.GraphSpec{Family: "cycle", N: 4096},
		Delta:     0,
		Trials:    64,
		MaxRounds: 5000,
		Seed:      1,
	}
	r, err := repro.NewRunner(s)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Run(ctx); err == nil {
		t.Error("cancelled run returned no error")
	}
}

// TestRunnerOptions: WithMaxRounds overrides the cap and WithTopology
// injects a pre-built graph.
func TestRunnerOptions(t *testing.T) {
	s := repro.RunSpec{Graph: repro.GraphSpec{Family: "cycle", N: 64}, Delta: 0, Seed: 2}
	r, err := repro.NewRunner(s, repro.WithMaxRounds(7))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Reports[0].Rounds > 7 {
		t.Errorf("WithMaxRounds(7) ran %d rounds", rep.Reports[0].Rounds)
	}

	g := repro.Complete(32)
	r2, err := repro.NewRunner(testSpec(1), repro.WithTopology(g))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r2.Topology()
	if err != nil || got != repro.Topology(g) {
		t.Errorf("WithTopology not honoured: %v, %v", got, err)
	}
	rep2, err := r2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.GraphName != g.Name() {
		t.Errorf("report names %q, want injected %q", rep2.GraphName, g.Name())
	}

	// Invalid specs are rejected at construction.
	if _, err := repro.NewRunner(repro.RunSpec{Graph: repro.GraphSpec{Family: "nope"}, Delta: 0.1}); err == nil {
		t.Error("invalid family accepted by NewRunner")
	}
	if _, err := repro.NewRunner(repro.RunSpec{Graph: repro.GraphSpec{Family: "cycle", N: 8}, Delta: 0.9}); err == nil {
		t.Error("invalid delta accepted by NewRunner")
	}
}

func TestRunnerEngineName(t *testing.T) {
	mf, err := repro.NewRunner(repro.RunSpec{
		Graph: repro.GraphSpec{Family: "complete-virtual", N: 128}, Delta: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if name, err := mf.EngineName(); err != nil || name != "mean-field" {
		t.Errorf("complete-virtual EngineName = %q, %v", name, err)
	}

	forced, err := repro.NewRunner(repro.RunSpec{
		Graph: repro.GraphSpec{Family: "complete-virtual", N: 128}, Delta: 0.1, Engine: "general",
	})
	if err != nil {
		t.Fatal(err)
	}
	if name, err := forced.EngineName(); err != nil || name != "general" {
		t.Errorf("forced general EngineName = %q, %v", name, err)
	}

	gen, err := repro.NewRunner(repro.RunSpec{
		Graph: repro.GraphSpec{Family: "random-regular", N: 64, D: 8, Seed: 1}, Delta: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if name, err := gen.EngineName(); err != nil || name != "general" {
		t.Errorf("random-regular EngineName = %q, %v", name, err)
	}

	// Non-sync variants run per-vertex sampling, so they resolve to the
	// general engine even on the mean-field-eligible complete-virtual.
	for _, v := range []repro.VariantSpec{
		{Name: "async"},
		{Name: "stubborn", StubbornFrac: 0.1},
		{Name: "plurality", Q: 3},
	} {
		r, err := repro.NewRunner(repro.RunSpec{
			Graph: repro.GraphSpec{Family: "complete-virtual", N: 128}, Delta: 0.1, Variant: &v,
		})
		if err != nil {
			t.Fatal(err)
		}
		if name, err := r.EngineName(); err != nil || name != "general" {
			t.Errorf("%s on complete-virtual EngineName = %q, %v", v.Name, name, err)
		}
	}
}

// TestRunnerEngineABEquivalence is the A/B-validation knob end to end:
// the same complete-graph spec run on both engines must produce
// statistically compatible aggregates (here: red wins out of trials, with
// a generous tolerance — the engines follow different RNG streams).
func TestRunnerEngineABEquivalence(t *testing.T) {
	base := repro.RunSpec{
		Graph: repro.GraphSpec{Family: "complete-virtual", N: 256}, Delta: 0.15,
		Trials: 64, Seed: 5,
	}
	run := func(engine string) *repro.RunReport {
		s := base
		s.Engine = engine
		r, err := repro.NewRunner(s)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := r.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	mf := run("mean-field")
	gen := run("general")
	// δ = 0.15 on K_256 is far inside the red-wins regime: both engines
	// should win nearly every trial; a large gap means the fast path is
	// sampling a different process.
	if mf.RedWins < 58 || gen.RedWins < 58 {
		t.Errorf("red wins: mean-field %d/64, general %d/64", mf.RedWins, gen.RedWins)
	}
	if mf.ConsensusCount != 64 || gen.ConsensusCount != 64 {
		t.Errorf("consensus: mean-field %d/64, general %d/64", mf.ConsensusCount, gen.ConsensusCount)
	}
}

// TestRunnerVariantStreamRace is the variant tier's concurrency stress: an
// async-variant spec fanned out over parallel trial workers through Stream,
// with a shared observer attached, must (a) race-cleanly execute under `go
// test -race` and (b) deliver outcomes byte-identical to the serial run —
// trial parallelism never changes what a trial computes, for variants
// exactly as for the synchronous default.
func TestRunnerVariantStreamRace(t *testing.T) {
	for _, v := range []*repro.VariantSpec{
		{Name: "async"},
		{Name: "stubborn", StubbornFrac: 0.1},
		{Name: "plurality", Q: 4},
	} {
		v := v
		t.Run(v.Name, func(t *testing.T) {
			s := testSpec(32)
			s.MaxRounds = 200
			s.Variant = v

			serial, err := repro.NewRunner(s, repro.WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			want, err := serial.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}

			var mu sync.Mutex
			frames := 0
			parallel, err := repro.NewRunner(s, repro.WithWorkers(8),
				repro.WithObserver(func(trial, round, blues int) {
					mu.Lock()
					frames++
					mu.Unlock()
				}))
			if err != nil {
				t.Fatal(err)
			}
			stream, err := parallel.Stream(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			got := make([]repro.TrialOutcome, s.Trials)
			for res := range stream {
				if res.Err != nil {
					t.Fatal(res.Err)
				}
				got[res.Trial] = repro.TrialOutcome{
					Trial:     res.Trial,
					Seed:      res.Seed,
					RedWon:    res.Report.RedWon,
					Consensus: res.Report.Consensus,
					Rounds:    res.Report.Rounds,
				}
			}
			if !reflect.DeepEqual(want.Outcomes, got) {
				t.Errorf("parallel %s outcomes diverge from serial:\nserial   %+v\nparallel %+v", v.Name, want.Outcomes, got)
			}
			if frames == 0 {
				t.Errorf("observer saw no frames")
			}
		})
	}
}
