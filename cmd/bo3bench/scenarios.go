package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/artifact"
	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/opinion"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/spec"
)

// Scale parameterises the scenarios. Quick shrinks everything to CI-smoke
// size; KnN is the vertex count of the K_n engine comparison (the
// committed baseline uses 10⁶).
type Scale struct {
	KnN   int
	Seed  uint64
	Quick bool
}

func (s Scale) pick(full, quick int) int {
	if s.Quick {
		return quick
	}
	return full
}

// scenario is one registered bench. Names are stable identifiers: the
// docs/PERFORMANCE.md scenario table is checked against them in CI, and
// BENCH_engine.json keys results by them across PRs.
type scenario struct {
	name        string
	description string
	run         func(Scale) (params map[string]any, metrics map[string]float64, err error)
}

// scenarios is the registry, in execution order. Keep `-list` output (the
// name column) in sync with docs/PERFORMANCE.md.
var scenarios = []scenario{
	{
		name:        "round/kn-meanfield",
		description: "per-round cost of the mean-field fast path on virtual K_n (two binomial draws per round)",
		run:         func(s Scale) (map[string]any, map[string]float64, error) { return roundKn(s, dynamics.EngineMeanField) },
	},
	{
		name:        "round/kn-general",
		description: "per-round cost of the general engine on the same virtual K_n instance",
		run:         func(s Scale) (map[string]any, map[string]float64, error) { return roundKn(s, dynamics.EngineGeneral) },
	},
	{
		name:        "round/regular",
		description: "general-engine round throughput on random-regular (vertex kernel, CSR rows)",
		run:         roundRegular,
	},
	{
		name:        "round/regular-noise",
		description: "general-engine round throughput with per-sample noise (vertex kernel, flips drawn through rng.BinomialTable)",
		run:         roundRegularNoise,
	},
	{
		name:        "round/regular-async",
		description: "async sweep throughput with per-sample noise (n ticks through the same vertex kernel, rows prefetched)",
		run:         roundRegularAsync,
	},
	{
		name:        "trials/kn",
		description: "trial throughput of repro.Runner on complete-virtual (mean-field engine, full init-to-consensus trials)",
		run:         trialsKn,
	},
	{
		name:        "trials/regular",
		description: "trial throughput of repro.Runner on random-regular (general engine)",
		run:         trialsRegular,
	},
	{
		name:        "graph/artifact-load",
		description: "preprocess→serve split: binary artifact load (read + checksums + zero-copy decode) vs the in-process generator path",
		run:         graphArtifactLoad,
	},
	{
		name:        "serve/jobs",
		description: "end-to-end job throughput through an in-process bo3serve HTTP server",
		run:         serveJobs,
	},
	{
		name:        "serve/cached-jobs",
		description: "result-store hit path: identical jobs resubmitted to a store-backed server (miss vs hit throughput)",
		run:         serveCachedJobs,
	},
	{
		name:        "sweep/variant-sweep",
		description: "one /v1/sweeps request crossing the registered opinion dynamics (the grid's variants axis): per-variant trial cost from a single sweep's cells",
		run:         sweepVariantSweep,
	},
	{
		name:        "serve/events-fanout",
		description: "event-bus fan-out: one sweep streamed to K concurrent /events watchers (NDJSON, one deliberately slow), reporting delivered/published/dropped frames",
		run:         serveEventsFanout,
	},
	{
		name:        "serve/metrics-overhead",
		description: "cost of the observability layer on the serve/jobs hot path: the registry operation mix one executed job drives, as a fraction of measured per-job wall time (errors at >= 2%)",
		run:         serveMetricsOverhead,
	},
}

// timedRounds steps the process r times, resetting the blue count to a
// mixed state (0.4·n) after every round so absorption never turns later
// rounds into no-ops; the reset is O(1) on the mean-field engine and an
// O(n/64) word-fill on the general engine, both negligible against a
// sampled round. Returns ns/round.
func timedRounds(p *dynamics.Process, n, r int) float64 {
	b := 2 * n / 5
	p.SetBlueCount(b)
	start := time.Now()
	for i := 0; i < r; i++ {
		p.Step()
		p.SetBlueCount(b)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(r)
}

func roundKn(s Scale, engine dynamics.Engine) (map[string]any, map[string]float64, error) {
	n := s.KnN
	g := graph.NewKn(n)
	init := opinion.RandomConfig(n, 0.4, rng.New(s.Seed))
	p, err := dynamics.New(g, dynamics.BestOfThree, init, dynamics.Options{Seed: s.Seed + 1, Engine: engine})
	if err != nil {
		return nil, nil, err
	}
	rounds := s.pick(16, 8)
	if engine == dynamics.EngineMeanField {
		rounds = s.pick(200_000, 20_000)
	}
	nsPerRound := timedRounds(p, n, rounds)
	return map[string]any{"family": "complete-virtual", "n": n, "k": 3, "engine": engine.String(), "rounds": rounds},
		map[string]float64{
			"ns_per_round":      nsPerRound,
			"rounds_per_sec":    1e9 / nsPerRound,
			"mvertices_per_sec": float64(n) / nsPerRound * 1e3,
		}, nil
}

func roundRegular(s Scale) (map[string]any, map[string]float64, error) {
	n, d := s.pick(1<<17, 1<<14), 32
	g := graph.RandomRegular(n, d, rng.New(s.Seed))
	init := opinion.RandomConfig(n, 0.4, rng.New(s.Seed+1))
	p, err := dynamics.New(g, dynamics.BestOfThree, init, dynamics.Options{Seed: s.Seed + 2})
	if err != nil {
		return nil, nil, err
	}
	rounds := s.pick(128, 64)
	nsPerRound := timedRounds(p, n, rounds)
	return map[string]any{"family": "random-regular", "n": n, "d": d, "k": 3, "engine": p.Engine().String(), "rounds": rounds},
		map[string]float64{
			"ns_per_round":      nsPerRound,
			"rounds_per_sec":    1e9 / nsPerRound,
			"mvertices_per_sec": float64(n) / nsPerRound * 1e3,
		}, nil
}

func roundRegularNoise(s Scale) (map[string]any, map[string]float64, error) {
	n, d := s.pick(1<<17, 1<<14), 32
	g := graph.RandomRegular(n, d, rng.New(s.Seed))
	init := opinion.RandomConfig(n, 0.4, rng.New(s.Seed+1))
	rule := dynamics.Rule{K: 3, Noise: 0.01}
	p, err := dynamics.New(g, rule, init, dynamics.Options{Seed: s.Seed + 2})
	if err != nil {
		return nil, nil, err
	}
	rounds := s.pick(64, 32)
	nsPerRound := timedRounds(p, n, rounds)
	return map[string]any{"family": "random-regular", "n": n, "d": d, "k": 3, "noise": 0.01, "engine": p.Engine().String(), "rounds": rounds},
		map[string]float64{
			"ns_per_round":      nsPerRound,
			"rounds_per_sec":    1e9 / nsPerRound,
			"mvertices_per_sec": float64(n) / nsPerRound * 1e3,
		}, nil
}

// roundRegularAsync times async sweeps in the shape of perfbench
// sweep-variants' async noise cells: random-regular n = 2¹⁵, d = 32,
// Best-of-Three with noise 0.05. Noise holds the configuration off
// consensus, so no sweep is cut short and no reset is needed.
func roundRegularAsync(s Scale) (map[string]any, map[string]float64, error) {
	n, d := s.pick(1<<15, 1<<13), 32
	g := graph.RandomRegular(n, d, rng.New(s.Seed))
	init := opinion.RandomConfig(n, 0.4, rng.New(s.Seed+1))
	rule := dynamics.Rule{K: 3, Noise: 0.05}
	a, err := dynamics.NewAsync(g, rule, init, s.Seed+2)
	if err != nil {
		return nil, nil, err
	}
	sweeps := s.pick(64, 16)
	start := time.Now()
	for i := 0; i < sweeps; i++ {
		a.Step()
	}
	nsPerSweep := float64(time.Since(start).Nanoseconds()) / float64(sweeps)
	return map[string]any{"family": "random-regular", "n": n, "d": d, "k": 3, "noise": 0.05, "sweeps": sweeps},
		map[string]float64{
			"ns_per_sweep":      nsPerSweep,
			"sweeps_per_sec":    1e9 / nsPerSweep,
			"mvertices_per_sec": float64(n) / nsPerSweep * 1e3,
		}, nil
}

func runTrials(s Scale, gs spec.GraphSpec, trials int) (map[string]any, map[string]float64, error) {
	rs := spec.RunSpec{Graph: gs, Delta: 0.1, Trials: trials, Seed: s.Seed}
	runner, err := repro.NewRunner(rs)
	if err != nil {
		return nil, nil, err
	}
	engine, err := runner.EngineName()
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	rep, err := runner.Run(context.Background())
	if err != nil {
		return nil, nil, err
	}
	secs := time.Since(start).Seconds()
	rounds := 0
	for _, o := range rep.Outcomes {
		rounds += o.Rounds
	}
	return map[string]any{"family": gs.Family, "n": gs.N, "d": gs.D, "trials": trials, "delta": 0.1, "engine": engine},
		map[string]float64{
			"trials_per_sec": float64(trials) / secs,
			"rounds_per_sec": float64(rounds) / secs,
			"mean_rounds":    rep.MeanRounds,
		}, nil
}

func trialsKn(s Scale) (map[string]any, map[string]float64, error) {
	return runTrials(s, spec.GraphSpec{Family: "complete-virtual", N: s.pick(1<<16, 1<<12)}, s.pick(64, 16))
}

func trialsRegular(s Scale) (map[string]any, map[string]float64, error) {
	return runTrials(s, spec.GraphSpec{Family: "random-regular", N: s.pick(1<<12, 1<<10), D: 32, Seed: 1}, s.pick(32, 8))
}

// graphArtifactLoad times the two cold-start paths for one large
// random-regular topology: the full generator (what every process pays
// without artifacts) against loading the bo3graph-built artifact from
// disk (read + checksum passes + zero-copy CSR adoption). The speedup is
// the PR's acceptance number: artifact load must beat generation.
func graphArtifactLoad(s Scale) (map[string]any, map[string]float64, error) {
	gs := spec.GraphSpec{Family: "random-regular", N: s.pick(1<<17, 1<<12), D: 16, Seed: s.Seed}
	dir, err := os.MkdirTemp("", "bo3bench-artifacts-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	d, err := artifact.OpenDir(dir, 0)
	if err != nil {
		return nil, nil, err
	}
	a, err := artifact.FromSpec(gs)
	if err != nil {
		return nil, nil, err
	}
	if _, err := d.Store(a); err != nil {
		return nil, nil, err
	}

	reps := s.pick(5, 2)
	start := time.Now()
	for i := 0; i < reps; i++ {
		if _, err := gs.Build(); err != nil {
			return nil, nil, err
		}
	}
	buildMS := time.Since(start).Seconds() * 1e3 / float64(reps)

	start = time.Now()
	for i := 0; i < reps; i++ {
		if _, err := d.Load(a.Key); err != nil {
			return nil, nil, err
		}
	}
	loadMS := time.Since(start).Seconds() * 1e3 / float64(reps)

	return map[string]any{"family": gs.Family, "n": gs.N, "d": gs.D, "seed": gs.Seed, "artifact_bytes": a.EncodedSize(), "reps": reps},
		map[string]float64{
			"build_ms": buildMS,
			"load_ms":  loadMS,
			"speedup":  buildMS / loadMS,
		}, nil
}

func serveJobs(s Scale) (map[string]any, map[string]float64, error) {
	mgr := serve.NewManager(serve.Config{Workers: 4, RootSeed: s.Seed})
	srv := httptest.NewServer(serve.NewServer(mgr))
	defer srv.Close()
	defer mgr.Close(context.Background())

	jobs := s.pick(48, 8)
	n, trials := 1<<12, 4
	secs, err := submitAndDrain(srv.URL, jobs, n, trials, s.Seed)
	if err != nil {
		return nil, nil, err
	}
	return map[string]any{"jobs": jobs, "family": "complete-virtual", "n": n, "trials": trials, "workers": 4},
		map[string]float64{
			"jobs_per_sec":   float64(jobs) / secs,
			"trials_per_sec": float64(jobs*trials) / secs,
		}, nil
}

// serveCachedJobs measures the result-store hit path: the same explicit-
// seed jobs are submitted twice against a store-backed server. The first
// pass executes and records (miss); the second is answered from the
// store without touching the worker pool (hit).
func serveCachedJobs(s Scale) (map[string]any, map[string]float64, error) {
	dir, err := os.MkdirTemp("", "bo3bench-store-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, nil, err
	}
	defer st.Close()
	mgr := serve.NewManager(serve.Config{Workers: 4, RootSeed: s.Seed, Store: st})
	srv := httptest.NewServer(serve.NewServer(mgr))
	defer srv.Close()
	defer mgr.Close(context.Background())

	jobs := s.pick(48, 8)
	n, trials := 1<<12, 4
	missSecs, err := submitAndDrain(srv.URL, jobs, n, trials, s.Seed)
	if err != nil {
		return nil, nil, err
	}
	hitSecs, err := submitAndDrain(srv.URL, jobs, n, trials, s.Seed)
	if err != nil {
		return nil, nil, err
	}
	var stats serve.Stats
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		return nil, nil, err
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	if stats.JobsCached != int64(jobs) {
		return nil, nil, fmt.Errorf("jobs_cached = %d after the hit pass, want %d", stats.JobsCached, jobs)
	}
	return map[string]any{"jobs": jobs, "family": "complete-virtual", "n": n, "trials": trials, "workers": 4},
		map[string]float64{
			"miss_jobs_per_sec": float64(jobs) / missSecs,
			"hit_jobs_per_sec":  float64(jobs) / hitSecs,
			"hit_speedup":       missSecs / hitSecs,
		}, nil
}

// sweepVariantSweep submits one sweep whose grid crosses a single
// random-regular instance with every registered opinion dynamic and
// reports per-variant trial cost from the finished cells. The ratios
// (<variant>_cost_vs_sync) are the number to watch across PRs: they say
// what a non-default dynamic costs relative to the paper's synchronous
// protocol on the identical instance, seeds included.
func sweepVariantSweep(s Scale) (map[string]any, map[string]float64, error) {
	mgr := serve.NewManager(serve.Config{Workers: 4, RootSeed: s.Seed})
	srv := httptest.NewServer(serve.NewServer(mgr))
	defer srv.Close()
	defer mgr.Close(context.Background())

	// stubborn_frac 0.2 makes the frozen-Blue zealots a winning coalition
	// (blue share 0.4·0.8 + 0.2 > 1/2), so the stubborn cell converges to
	// Blue consensus like the others converge to Red — every variant is
	// then measured on an init-to-consensus trial rather than on round-cap
	// exhaustion; the explicit MaxRounds bounds the scenario regardless.
	n, trials := s.pick(1<<14, 1<<11), s.pick(8, 2)
	// Warm the graph pool with one throwaway job on the shared topology so
	// the first sweep cell (sync, the ratios' denominator) is not the one
	// paying the random-regular construction cost.
	if err := warmGraph(srv.URL, serve.GraphSpec{Family: "random-regular", N: n, D: 32, Seed: s.Seed}); err != nil {
		return nil, nil, err
	}
	req := serve.SweepRequest{
		Grid: serve.SweepGrid{
			Graphs: []serve.GraphSpec{{Family: "random-regular", N: n, D: 32, Seed: s.Seed}},
			Deltas: []float64{0.1},
			Trials: []int{trials},
			Variants: []spec.VariantSpec{
				{Name: "sync"},
				{Name: "async"},
				{Name: "stubborn", StubbornFrac: 0.2},
				{Name: "plurality", Q: 4},
			},
		},
		MaxRounds: s.pick(512, 256),
		Seed:      s.Seed,
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	var view serve.SweepView
	derr := json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if derr != nil {
		return nil, nil, derr
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, nil, fmt.Errorf("submit sweep: status %d", resp.StatusCode)
	}

	deadline := time.Now().Add(2 * time.Minute)
	for view.State == serve.StateRunning {
		if time.Now().After(deadline) {
			return nil, nil, fmt.Errorf("sweep %s did not finish in time", view.ID)
		}
		time.Sleep(5 * time.Millisecond)
		resp, err := http.Get(srv.URL + "/v1/sweeps/" + view.ID)
		if err != nil {
			return nil, nil, err
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			return nil, nil, err
		}
	}
	secs := time.Since(start).Seconds()
	if view.State != serve.StateDone {
		return nil, nil, fmt.Errorf("sweep ended %s", view.State)
	}

	metrics := map[string]float64{
		"wall_secs":      secs,
		"trials_per_sec": float64(len(view.Cells)*trials) / secs,
	}
	var syncMS float64
	for _, c := range view.Cells {
		if c.Result == nil {
			return nil, nil, fmt.Errorf("cell %d finished without a result", c.Index)
		}
		name := c.Result.Variant
		if name == "" {
			name = "sync"
		}
		// elapsed_ms has 1 ms wire resolution; quick-scale cells can finish
		// under it. Floor at the half-quantum so the metric stays positive —
		// the committed full-scale baseline runs cells well above 1 ms.
		cellMS := float64(c.Result.ElapsedMS)
		if cellMS == 0 {
			cellMS = 0.5
		}
		perTrialMS := cellMS / float64(trials)
		metrics[name+"_trial_ms"] = perTrialMS
		metrics[name+"_mean_rounds"] = c.Result.MeanRounds
		if name == "sync" {
			syncMS = perTrialMS
		}
	}
	if syncMS > 0 {
		for _, c := range view.Cells {
			name := c.Result.Variant
			if name == "" {
				continue
			}
			metrics[name+"_cost_vs_sync"] = metrics[name+"_trial_ms"] / syncMS
		}
	}
	return map[string]any{"family": "random-regular", "n": n, "d": 32, "delta": 0.1,
		"trials": trials, "variants": len(view.Cells), "workers": 4}, metrics, nil
}

// serveEventsFanout measures the event bus end to end over HTTP: one
// sweep publishes round-decimated trajectory frames while K concurrent
// NDJSON watchers tail GET /v1/sweeps/{id}/events, watcher 0 reading
// deliberately slowly. The headline number is delivered frames per
// second across the fan-out; events_dropped records how much the
// drop-oldest rings shed (bursts outrunning a stream goroutine against
// the deliberately small 32-frame ring). The simulations' wall time is
// never a function of the watchers — that invariant is pinned by the
// wedged-subscriber test in internal/serve.
func serveEventsFanout(s Scale) (map[string]any, map[string]float64, error) {
	mgr := serve.NewManager(serve.Config{Workers: 4, RootSeed: s.Seed, EventBuffer: 32})
	srv := httptest.NewServer(serve.NewServer(mgr))
	defer srv.Close()
	defer mgr.Close(context.Background())

	// Cycle runs on the general engine, so rounds cost real wall time and
	// the sweep is still publishing frames when the watchers attach —
	// complete-virtual would finish before the first GET and reduce the
	// scenario to snapshot replay.
	trials, maxRounds := s.pick(64, 8), s.pick(400, 100)
	req := serve.SweepRequest{
		Grid: serve.SweepGrid{
			Graphs: []serve.GraphSpec{{Family: "cycle"}},
			NS:     []int{1 << 12},
			Deltas: []float64{0, 0.05},
			Trials: []int{trials},
		},
		MaxRounds: maxRounds,
		Seed:      s.Seed,
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	resp, err := http.Post(srv.URL+"/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	var accepted serve.SweepView
	derr := json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	if derr != nil {
		return nil, nil, derr
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, nil, fmt.Errorf("submit sweep: status %d", resp.StatusCode)
	}

	watchers := s.pick(16, 4)
	// One laggy client per run. Over real TCP the kernel socket buffers
	// absorb a slow *reader*, so server-side drops come from publish
	// bursts outrunning the stream goroutine against the small ring —
	// events_dropped reports whatever load-shedding actually happened.
	slowDelay := time.Millisecond
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		received int64
		firstErr error
	)
	for w := 0; w < watchers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stream, err := http.Get(srv.URL + "/v1/sweeps/" + accepted.ID + "/events")
			if err == nil && stream.StatusCode != http.StatusOK {
				err = fmt.Errorf("watcher %d: status %d", w, stream.StatusCode)
			}
			var lines int64
			if err == nil {
				sc := bufio.NewScanner(stream.Body)
				sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
				for sc.Scan() {
					lines++
					if w == 0 {
						time.Sleep(slowDelay)
					}
				}
				err = sc.Err()
			}
			if stream != nil {
				stream.Body.Close()
			}
			mu.Lock()
			received += lines
			if err != nil && firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	secs := time.Since(start).Seconds()
	if firstErr != nil {
		return nil, nil, firstErr
	}

	var stats serve.Stats
	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		return nil, nil, err
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		return nil, nil, err
	}
	if stats.EventsPublished == 0 {
		return nil, nil, fmt.Errorf("events_published = 0 after a watched sweep")
	}
	return map[string]any{"watchers": watchers, "family": "cycle", "n": 1 << 12, "cells": 2,
			"trials": trials, "max_rounds": maxRounds, "event_buffer": 32},
		map[string]float64{
			"events_delivered_per_sec": float64(received) / secs,
			"events_delivered":         float64(received),
			"events_published":         float64(stats.EventsPublished),
			"events_dropped":           float64(stats.EventsDropped),
		}, nil
}

// warmGraph runs one throwaway single-trial job on gs so the server's
// graph pool holds the topology before a timed scenario touches it.
func warmGraph(url string, gs serve.GraphSpec) error {
	body, err := json.Marshal(spec.RunSpec{Graph: gs, Delta: 0.1, Trials: 1, Seed: 1})
	if err != nil {
		return err
	}
	resp, err := http.Post(url+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var view serve.JobView
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("warm-up job: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(time.Minute)
	for {
		if time.Now().After(deadline) {
			return fmt.Errorf("warm-up job %s did not finish in time", view.ID)
		}
		resp, err := http.Get(url + "/v1/runs/" + view.ID)
		if err != nil {
			return err
		}
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			return err
		}
		switch view.State {
		case serve.StateDone:
			return nil
		case serve.StateFailed, serve.StateCancelled:
			return fmt.Errorf("warm-up job ended %s: %s", view.State, view.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// submitAndDrain posts `jobs` explicit-seed runs (seed s.Seed+i+1, so a
// repeat pass re-submits the identical specs) and polls them all to
// completion, returning the elapsed seconds.
func submitAndDrain(url string, jobs, n, trials int, seed uint64) (float64, error) {
	body := func(i int) []byte {
		b, _ := json.Marshal(spec.RunSpec{
			Graph:  spec.GraphSpec{Family: "complete-virtual", N: n},
			Delta:  0.1,
			Trials: trials,
			Seed:   seed + uint64(i) + 1,
		})
		return b
	}
	ids := make([]string, 0, jobs)
	start := time.Now()
	for i := 0; i < jobs; i++ {
		resp, err := http.Post(url+"/v1/runs", "application/json", bytes.NewReader(body(i)))
		if err != nil {
			return 0, err
		}
		var view serve.JobView
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusAccepted {
			return 0, fmt.Errorf("submit %d: status %d", i, resp.StatusCode)
		}
		ids = append(ids, view.ID)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for _, id := range ids {
		for {
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("job %s did not finish in time", id)
			}
			resp, err := http.Get(url + "/v1/runs/" + id)
			if err != nil {
				return 0, err
			}
			var view serve.JobView
			err = json.NewDecoder(resp.Body).Decode(&view)
			resp.Body.Close()
			if err != nil {
				return 0, err
			}
			if view.State == serve.StateDone {
				break
			}
			if view.State == serve.StateFailed || view.State == serve.StateCancelled {
				return 0, fmt.Errorf("job %s ended %s: %s", id, view.State, view.Error)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	return time.Since(start).Seconds(), nil
}

// serveMetricsOverhead prices the observability layer against the
// serve/jobs hot path. It runs the same workload on an instrumented
// server, reads back from /metrics how many registry operations that
// workload actually drove (one middleware sample per HTTP request, one
// publish sample per bus event, plus the fixed terminal bundle each
// executed job pays: counters, label lookups, per-stage histograms),
// then times that exact operation mix in isolation against a standalone
// registry with the same label cardinality and bucket layouts. The
// overhead is reported as a fraction of the measured per-job wall time,
// and the scenario errors at >= 2% so an instrumentation regression
// fails CI instead of quietly shifting the baseline.
func serveMetricsOverhead(s Scale) (map[string]any, map[string]float64, error) {
	reg := metrics.NewRegistry()
	mgr := serve.NewManager(serve.Config{Workers: 4, RootSeed: s.Seed, Metrics: reg})
	srv := httptest.NewServer(serve.NewServer(mgr))
	defer srv.Close()
	defer mgr.Close(context.Background())

	jobs := s.pick(48, 8)
	n, trials := 1<<12, 4
	secs, err := submitAndDrain(srv.URL, jobs, n, trials, s.Seed)
	if err != nil {
		return nil, nil, err
	}
	jobNS := secs * 1e9 / float64(jobs)

	reqs, err := scrapeFamilySum(srv.URL, "bo3_http_requests_total")
	if err != nil {
		return nil, nil, err
	}
	pubs, err := scrapeFamilySum(srv.URL, "bo3_bus_published_total")
	if err != nil {
		return nil, nil, err
	}
	reqsPerJob := reqs / float64(jobs)
	pubsPerJob := pubs / float64(jobs)

	micro := metrics.NewRegistry()
	reqC := micro.CounterVec("req_total", "micro", "route", "code")
	reqH := micro.HistogramVec("req_seconds", "micro", metrics.DefBuckets, "route")
	pubC := micro.Counter("pub_total", "micro")
	pubH := micro.Histogram("pub_seconds", "micro", metrics.FastBuckets)
	done := micro.Counter("done_total", "micro")
	engC := micro.CounterVec("eng_total", "micro", "engine")
	varC := micro.CounterVec("var_total", "micro", "variant")
	trialsC := micro.Counter("trials_total", "micro")
	roundsC := micro.Counter("rounds_total", "micro")
	qwH := micro.HistogramVec("qw_seconds", "micro", metrics.DefBuckets, "engine", "variant")
	exH := micro.HistogramVec("ex_seconds", "micro", metrics.DefBuckets, "engine", "variant")
	graphH := micro.Histogram("graph_seconds", "micro", metrics.DefBuckets)
	persistH := micro.Histogram("persist_seconds", "micro", metrics.DefBuckets)
	poolHits := micro.Counter("pool_hits_total", "micro")
	coalesceH := micro.Histogram("coalesce_seconds", "micro", metrics.FastBuckets)

	// Per HTTP request: the ServeHTTP middleware counts the (route, status
	// class) pair and observes the route latency histogram.
	midNS := timePerOp(s.pick(1_000_000, 100_000), func() {
		reqC.With("POST /v1/runs", "2xx").Inc()
		reqH.With("POST /v1/runs").Observe(1.2e-3)
	})
	// Per bus event: the topic counter (resolved at topic creation, so a
	// plain Inc) and the publish-latency observation.
	pubNS := timePerOp(s.pick(1_000_000, 100_000), func() {
		pubC.Inc()
		pubH.Observe(8e-6)
	})
	// Per executed job: the terminal transition's counters and the
	// per-stage queue/exec/graph/persist observations, plus the graph
	// pool's hit count and coalesce-wait sample.
	termNS := timePerOp(s.pick(500_000, 50_000), func() {
		done.Inc()
		engC.With("mean-field").Inc()
		varC.With("sync").Inc()
		trialsC.Add(int64(trials))
		roundsC.Add(64)
		qwH.With("mean-field", "sync").Observe(3e-4)
		exH.With("mean-field", "sync").Observe(2.5e-3)
		graphH.Observe(4e-5)
		persistH.Observe(1e-5)
		poolHits.Inc()
		coalesceH.Observe(2e-6)
	})

	instrNS := reqsPerJob*midNS + pubsPerJob*pubNS + termNS
	frac := instrNS / jobNS
	if frac >= 0.02 {
		return nil, nil, fmt.Errorf("instrumentation costs %.2f%% of the serve/jobs hot path (%.0f ns of %.0f ns/job), want < 2%%",
			frac*100, instrNS, jobNS)
	}
	return map[string]any{"jobs": jobs, "family": "complete-virtual", "n": n, "trials": trials, "workers": 4},
		map[string]float64{
			"job_ns":            jobNS,
			"instr_ns_per_job":  instrNS,
			"overhead_pct":      frac * 100,
			"requests_per_job":  reqsPerJob,
			"publishes_per_job": pubsPerJob,
			"middleware_ns":     midNS,
			"publish_ns":        pubNS,
			"terminal_ns":       termNS,
		}, nil
}

// timePerOp reports the mean cost of op in nanoseconds over a tight loop
// of iters calls.
func timePerOp(iters int, op func()) float64 {
	start := time.Now()
	for i := 0; i < iters; i++ {
		op()
	}
	return float64(time.Since(start)) / float64(iters)
}

// scrapeFamilySum fetches /metrics and sums every sample of one family
// across its label sets, so a scenario can count what a workload
// actually recorded without reaching into server internals.
func scrapeFamilySum(url, name string) (float64, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var sum float64
	found := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return 0, fmt.Errorf("metrics sample %q: %v", line, err)
		}
		sum += v
		found = true
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	if !found {
		return 0, fmt.Errorf("no %s samples in /metrics", name)
	}
	return sum, nil
}
