package main

import (
	"strings"
	"testing"

	"repro/internal/serve"
	"repro/spec"
)

func doneJob(s spec.RunSpec, res serve.RunResult) serve.JobView {
	res.Seed = s.Seed
	return serve.JobView{ID: "run-000001", State: serve.StateDone, Request: s, Result: &res}
}

func TestTamperedReplayOutcomeTripsGate(t *testing.T) {
	reports := []serve.TrialReport{{RedWon: true, Consensus: true, Rounds: 7}, {RedWon: true, Consensus: true, Rounds: 9}}
	v := serve.JobView{ID: "run-000003", Result: &serve.RunResult{Reports: reports}}
	if err := sameOutcomes(v, append([]serve.TrialReport(nil), reports...)); err != nil {
		t.Fatalf("identical outcomes rejected: %v", err)
	}
	tampered := append([]serve.TrialReport(nil), reports...)
	tampered[1].Rounds = 8
	if err := sameOutcomes(v, tampered); err == nil || !strings.Contains(err.Error(), "run-000003") {
		t.Fatalf("tampered rounds passed: %v", err)
	}
	tampered[1] = serve.TrialReport{RedWon: false, Consensus: true, Rounds: 9}
	if err := sameOutcomes(v, tampered); err == nil {
		t.Fatal("tampered winner passed")
	}
}

func TestTamperedResubmissionTripsGate(t *testing.T) {
	s := spec.RunSpec{Graph: spec.GraphSpec{Family: "complete-virtual", N: 4096}, Delta: 0.1, Trials: 2, Seed: 99}
	want := serve.RunResult{Trials: 2, RedWins: 2, Consensus: 2, MeanRounds: 5, MaxRounds: 5, Seed: 99,
		Reports: []serve.TrialReport{{RedWon: true, Consensus: true, Rounds: 5}, {RedWon: true, Consensus: true, Rounds: 5}}}
	cached := want
	cached.Cached = true
	ok := jobRecord{spec: s, view: doneJob(s, cached), resubmit: true, want: &want}
	if err := gateResubmissions([]jobRecord{ok}); err != nil {
		t.Fatalf("faithful store hit rejected: %v", err)
	}

	tampered := cached
	tampered.Reports = []serve.TrialReport{{RedWon: true, Consensus: true, Rounds: 5}, {RedWon: true, Consensus: true, Rounds: 6}}
	bad := ok
	bad.view = doneJob(s, tampered)
	if err := gateResubmissions([]jobRecord{bad}); err == nil {
		t.Fatal("a stored result differing from the set-up run passed")
	}

	executed := ok
	executed.view = doneJob(s, want) // re-executed instead of answered from the store
	if err := gateResubmissions([]jobRecord{executed}); err == nil {
		t.Fatal("a resubmission that missed the store passed")
	}

	wrongSpec := ok
	other := s
	other.Delta = 0.2
	wrongSpec.view = doneJob(other, cached)
	if err := gateResubmissions([]jobRecord{wrongSpec}); err == nil {
		t.Fatal("a job that ran a different spec passed")
	}
}

func TestTheorem1GateTrips(t *testing.T) {
	s := spec.RunSpec{Graph: spec.GraphSpec{Family: "dense", N: 1 << 13, Alpha: 0.6, Seed: 3}, Delta: 0.1, Trials: 4, Seed: 5}
	res := serve.RunResult{Trials: 4, RedWins: 4, MeanRounds: 6, PredictedRounds: 8, PreconditionOK: true}
	cell := jobRecord{spec: s, view: doneJob(s, res)}
	if err := gateTheorem1([]jobRecord{cell}); err != nil {
		t.Fatalf("a cell within Theorem 1 was rejected: %v", err)
	}

	lost := res
	lost.RedWins = 3
	if err := gateTheorem1([]jobRecord{{spec: s, view: doneJob(s, lost)}}); err == nil {
		t.Fatal("a lost trial passed")
	}
	slow := res
	slow.MeanRounds = 8.25
	if err := gateTheorem1([]jobRecord{{spec: s, view: doneJob(s, slow)}}); err == nil {
		t.Fatal("mean rounds above the prediction passed")
	}

	// Below the 4/√n floor (0.044 at n = 8192), or outside the theorem's
	// hypotheses, a lost trial is not a violation.
	low := s
	low.Delta = 0.02
	if err := gateTheorem1([]jobRecord{{spec: low, view: doneJob(low, lost)}}); err != nil {
		t.Fatalf("a cell below the noise floor was gated: %v", err)
	}
	pre := lost
	pre.PreconditionOK = false
	if err := gateTheorem1([]jobRecord{{spec: s, view: doneJob(s, pre)}}); err != nil {
		t.Fatalf("a cell outside the hypotheses was gated: %v", err)
	}
}
