package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/spec"
)

// Seed-derivation labels: every input a workload generates comes from
// rng.ChildSeed(seed, label, ...), so one --seed argument fixes the
// arrival schedule, the job mix, the sweep seeds and the graph seeds.
const (
	labelGraph uint64 = iota + 1
	labelSweep
	labelSchedule
	labelMix
	labelJob
	labelSetupJob
	labelKernel
)

// segments is how many equal parts every workload's timed part is run in;
// each end-to-end figure of the timed part is the median over them, so a
// stall of the shared machine that hits one part does not move it.
const segments = 5

// workload is one named traffic mix run against a fresh server.
type workload interface {
	// options selects the server's result store and artifact directory.
	options() envOptions
	// setup prepares the server (artifact preprocessing, pool and store
	// warm-up) and is timed as set-up.
	setup(rc *runCtx) error
	// timed runs the measured part and fills rc.p's end-to-end fields.
	timed(rc *runCtx) error
	// collect fetches, after the timed part, what the gate and the layer
	// breakdown need (child-run views of sweep cells).
	collect(rc *runCtx) error
	// gate checks the outputs; an error marks the run invalid.
	gate(rc *runCtx) error
}

// runCtx is what a workload sees during one pass.
type runCtx struct {
	seed uint64
	tr   *tracer
	env  *env
	// c and c2 are the benchmark's two client connections; the
	// single-client workloads use only c.
	c, c2 *client
	p     *pass
	// topos holds the topologies the traced replay ran on, by graph key.
	topos map[string]core.Topology
}

// jobRecord is one job or sweep cell of the timed part.
type jobRecord struct {
	spec spec.RunSpec  // as generated, explicit seed
	view serve.JobView // terminal view; Result.Reports set where fetched
	// resubmit marks a spec completed during set-up, so the server must
	// answer from its store; want is that set-up result.
	resubmit bool
	want     *serve.RunResult
	phase    int // jobs-open: 1 = open loop, 2 = closed loop
	// sched is the open-loop due time; sent and acked bound the POST.
	sched, sent, acked time.Time
	refused            bool
}

// pass is one set-up plus timed part against a fresh server.
type pass struct {
	setupS    float64
	setupRuns []float64

	// End-to-end, as defined in BENCHMARK.json.
	windowS   float64   // sweep_s: the median of walls
	walls     []float64 // each segment's wall time (jobs-open: phase-2 batches)
	timedS    float64   // the whole timed part
	latencyMS []float64 // job_p50_ms / job_p99_ms samples; +Inf = failed
	// midMS and tailMS hold each segment's median and tail latency, whose
	// medians are job_p50_ms and job_p99_ms. jobs-open has one tail, the
	// 99th percentile over all its open-loop windows; a sweep segment's
	// tail is its last cell to finish (too few cells for a 99th
	// percentile).
	midMS     []float64
	tailMS    []float64
	jobsPerS  float64
	rssMiB    float64
	attempted int
	failed    int

	// Layer inputs.
	snapStart, snapSetup, snapMid, snapTimed scrape
	jobs                                     []jobRecord
	submitMS                                 []float64 // client POST spans of the timed part
	lateMS                                   []float64 // jobs-open sender lateness
	// setupBuilds and setupEdges count the benchmark's own preprocessing
	// builds in set-up; artifactBytes is what they published.
	setupBuilds      int
	setupEdges       int64
	artifactBytes    int64
	spans            []span
	replay           *replayTotals
	kernel           map[string]float64
	csrBytes         map[string]int64 // computed, per topology key
	serverBuiltEdges int64
	// idleS is the idle worker-seconds a traced sweep workload sampled
	// during its timed part.
	idleS float64
}

// measure runs setups set-ups (reporting their median as setup_s) and one
// timed part on the last, then collects and gates the outputs. A traced
// pass also replays every executed spec and times the primitives.
func measure(wl workload, seed uint64, traced bool, setups int, workdir string) (*pass, error) {
	p := &pass{}
	var rc *runCtx
	for i := 0; i < setups; i++ {
		tr := newTracer(traced)
		start := time.Now()
		e, err := startEnv(workdir, wl.options())
		if err != nil {
			return nil, err
		}
		rc = &runCtx{seed: seed, tr: tr, env: e, c: newClient(e.base, tr), c2: newClient(e.base, tr), p: p, topos: map[string]core.Topology{}}
		if p.snapStart, err = rc.c.scrapeMetrics(); err == nil {
			err = wl.setup(rc)
		}
		p.setupRuns = append(p.setupRuns, time.Since(start).Seconds())
		if err != nil {
			rc.close()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if i < setups-1 {
			if err := rc.close(); err != nil {
				return nil, err
			}
			p.setupBuilds, p.setupEdges, p.artifactBytes = 0, 0, 0
		}
	}
	defer rc.close()
	p.setupS = median(p.setupRuns)

	// Garbage from earlier set-ups must not count as the timed part's
	// resident set.
	runtime.GC()
	debug.FreeOSMemory()
	var err error
	if p.snapSetup, err = rc.c.scrapeMetrics(); err != nil {
		return nil, err
	}
	rss := startRSS()
	start := time.Now()
	err = wl.timed(rc)
	p.rssMiB = rss.peak()
	if err != nil {
		return nil, fmt.Errorf("timed part: %w", err)
	}
	logf("traced=%t: set-up %.1f s, timed part %.1f s", traced, p.setupS, time.Since(start).Seconds())
	if p.snapTimed, err = rc.c.scrapeMetrics(); err != nil {
		return nil, err
	}
	if err := wl.collect(rc); err != nil {
		return nil, fmt.Errorf("collect: %w", err)
	}
	if err := wl.gate(rc); err != nil {
		return nil, fmt.Errorf("correctness gate: %w", err)
	}
	if traced {
		start = time.Now()
		if p.replay, err = replayAll(rc); err != nil {
			return nil, err
		}
		logf("replay %.1f s", time.Since(start).Seconds())
		start = time.Now()
		g, err := kernelGraph(seed).Build()
		if err != nil {
			return nil, err
		}
		p.kernel = kernelTimings(g, seed)
		logf("kernel primitives %.1f s", time.Since(start).Seconds())
		p.csrBytes = map[string]int64{}
		for key, g := range rc.topos {
			p.csrBytes[key] = csrBytes(g)
			if rc.env.art == nil {
				// Without artifacts the server built every topology the
				// workload touches, in set-up.
				p.serverBuiltEdges += edgesOf(g)
			}
		}
	}
	p.spans = rc.tr.snapshot()
	return p, nil
}

func (rc *runCtx) close() error {
	rc.c.close()
	rc.c2.close()
	return rc.env.close()
}

// logf writes a progress line to standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
