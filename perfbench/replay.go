package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/spec"
)

// pathTotals accumulates one engine path's replayed round time.
type pathTotals struct {
	roundS       float64
	rounds       float64
	vertexRounds float64
}

// replayTotals is the serial library replay of every executed spec: each
// trial split, by the round observer's timestamps, into init (before the
// round-0 callback: the initial colouring and process set-up), rounds
// (first to last callback) and finish (after the last callback: the
// report, plus the runner's construction and result folding).
type replayTotals struct {
	initS, roundS, finishS float64
	initVertices           float64
	paths                  map[string]*pathTotals
}

func (t *replayTotals) totalS() float64 { return t.initS + t.roundS + t.finishS }

// Engine paths the per-vertex-round figures are split by.
const (
	pathSync      = "sync"
	pathNoise     = "noise"
	pathAsync     = "async"
	pathStubborn  = "stubborn"
	pathPlurality = "plurality"
	pathMeanField = "meanfield"
)

// enginePath names the code path a spec's rounds run on.
func enginePath(s spec.RunSpec, engine string) string {
	switch {
	case engine == "mean-field":
		return pathMeanField
	case s.VariantName() != "sync":
		return s.VariantName()
	case s.Rule != nil && s.Rule.Noise > 0:
		return pathNoise
	default:
		return pathSync
	}
}

// replayAll replays every executed (not store-answered) job of the pass
// through repro.NewRunner with one trial worker, checking that the served
// per-trial outcomes equal the replay's byte for byte.
func replayAll(rc *runCtx) (*replayTotals, error) {
	t := &replayTotals{paths: map[string]*pathTotals{}}
	for _, j := range rc.p.jobs {
		if j.refused || j.view.Result == nil || j.view.Result.Cached {
			continue
		}
		g, err := topologyFor(rc, j.spec.Graph)
		if err != nil {
			return nil, err
		}
		if err := replayOne(rc, t, j, g); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func replayOne(rc *runCtx, t *replayTotals, j jobRecord, g core.Topology) error {
	// Marks are per trial: the worker writes trial i+1's while the consumer
	// still reads trial i's.
	marks := make([][2]time.Time, j.spec.Trials)
	obs := func(trial, round, blues int) {
		now := time.Now()
		if round == 0 {
			marks[trial][0] = now
		}
		marks[trial][1] = now
	}
	start := time.Now()
	runner, err := repro.NewRunner(j.spec, repro.WithTopology(g), repro.WithWorkers(1), repro.WithObserver(obs))
	if err != nil {
		return err
	}
	engine, err := runner.EngineName()
	if err != nil {
		return err
	}
	path := t.paths[enginePath(j.spec, engine)]
	if path == nil {
		path = &pathTotals{}
		t.paths[enginePath(j.spec, engine)] = path
	}
	stream, err := runner.Stream(context.Background())
	if err != nil {
		return err
	}
	trace := j.view.ID
	prev := time.Now()
	t.finishS += prev.Sub(start).Seconds()
	reports := make([]serve.TrialReport, j.spec.Trials)
	var firstErr error
	n := float64(g.N())
	for tr := range stream {
		recv := time.Now()
		if tr.Err != nil {
			firstErr = tr.Err
			continue
		}
		m := marks[tr.Trial]
		t.initS += m[0].Sub(prev).Seconds()
		t.roundS += m[1].Sub(m[0]).Seconds()
		t.finishS += recv.Sub(m[1]).Seconds()
		rc.tr.add("replay.init", trace, 0, prev, m[0])
		rc.tr.add("replay.rounds", trace, 0, m[0], m[1])
		rc.tr.add("replay.finish", trace, 0, m[1], recv)
		prev = recv
		t.initVertices += n
		path.roundS += m[1].Sub(m[0]).Seconds()
		path.rounds += float64(tr.Report.Rounds)
		path.vertexRounds += float64(tr.Report.Rounds) * n
		reports[tr.Trial] = serve.TrialReport{RedWon: tr.Report.RedWon, Consensus: tr.Report.Consensus, Rounds: tr.Report.Rounds}
	}
	if firstErr != nil {
		return firstErr
	}
	t.finishS += time.Since(prev).Seconds()
	return sameOutcomes(j.view, reports)
}

// sameOutcomes is the replay gate: the served per-trial {red_won,
// consensus, rounds} must equal the replay's, byte for byte.
func sameOutcomes(v serve.JobView, replayed []serve.TrialReport) error {
	served, _ := json.Marshal(v.Result.Reports) // TrialReports always marshal
	local, _ := json.Marshal(replayed)
	if string(served) != string(local) {
		return fmt.Errorf("job %s: served outcomes differ from the library replay:\nserved %s\nreplay %s", v.ID, served, local)
	}
	return nil
}

// sink keeps the primitive loops' results live.
var sink uint64

// kernelTimings times the sampling kernel's primitives through their
// public signatures on g, each as the median of five passes:
// rng.Source.Fill into a 4096-word block, Topology.Neighbor at a random
// slot of every row in vertex (engine) order, bitset.Set.Get at the
// neighbours so drawn, and bitset.Set.SetWord over the whole set.
func kernelTimings(g core.Topology, seed uint64) map[string]float64 {
	const reps, samples = 5, 3 // samples per vertex, as Best-of-3 draws
	src := rng.New(rng.ChildSeed(seed, labelKernel))
	best := func(fn func() float64) float64 {
		xs := make([]float64, reps)
		for i := range xs {
			xs[i] = fn()
		}
		return median(xs)
	}
	out := map[string]float64{}

	buf := make([]uint64, 4096)
	const fills = 256
	out["rng_ns_per_word"] = best(func() float64 {
		start := time.Now()
		for i := 0; i < fills; i++ {
			src.Fill(buf)
		}
		sink += buf[0]
		return float64(time.Since(start).Nanoseconds()) / (fills * float64(len(buf)))
	})

	n := g.N()
	slots := make([]int, samples*n)
	for v := 0; v < n; v++ {
		for k := 0; k < samples; k++ {
			slots[samples*v+k] = src.Intn(g.Degree(v))
		}
	}
	nbrs := make([]int, len(slots))
	out["neighbor_ns"] = best(func() float64 {
		start := time.Now()
		for v := 0; v < n; v++ {
			for k := 0; k < samples; k++ {
				nbrs[samples*v+k] = g.Neighbor(v, slots[samples*v+k])
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(len(slots))
	})

	set := bitset.New(n)
	words := (n + 63) / 64
	src.Fill(buf)
	for wi := 0; wi < words; wi++ {
		set.SetWord(wi, buf[wi&4095])
	}
	out["bitset_get_ns"] = best(func() float64 {
		start := time.Now()
		c := uint64(0)
		for _, u := range nbrs {
			if set.Get(u) {
				c++
			}
		}
		sink += c
		return float64(time.Since(start).Nanoseconds()) / float64(len(nbrs))
	})
	const sweeps = 64
	out["setword_ns"] = best(func() float64 {
		start := time.Now()
		for r := 0; r < sweeps; r++ {
			for wi := 0; wi < words; wi++ {
				set.SetWord(wi, buf[(wi+r)&4095])
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(sweeps*words)
	})
	out["csr_bytes"] = float64(csrBytes(g))
	return out
}
