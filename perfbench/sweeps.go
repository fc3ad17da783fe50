package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/spec"
)

// Run-length sizing. The sweep workloads run a fixed amount of work per
// second of --seconds, so the same seed and length always execute the
// same trials (the counts repeat exactly) while the wall time is what is
// measured. The factors were fitted to ~1 s of timed part per second of
// --seconds on a 2-CPU Xeon (Sapphire Rapids, KVM) at the parent commit.
const (
	denseTrialsPerSecond    = 12.0 // sweep-dense trials per cell
	variantsTrialsPerSecond = 1.4  // sweep-variants sweep (a) trials per cell
	noiseTrialsPerSecond    = 0.5  // sweep-variants sweep (b) trials per cell
	noiseMaxRounds          = 200  // sweep-variants sweep (b) round cap
)

// sweepRun is one submitted sweep and its streamed cells.
type sweepRun struct {
	id       string
	segment  int
	sent     time.Time
	rootSpan int
	cells    []serve.SweepCellView
	summary  *serve.SweepView
	specs    []spec.RunSpec
}

// sweeper runs the timed part as `segments` repetitions of a list of
// sweeps, each repetition with its own sweep seeds and an equal share of
// the trials, on one connection; both sweep workloads embed it.
type sweeper struct {
	segments [][]serve.SweepRequest
	runs     []sweepRun
}

// expand is the client-side expansion of a sweep request, the same
// spec.Grid.Expand the server applies, giving the executed specs for the
// replay independently of the server.
func expand(req serve.SweepRequest) []spec.RunSpec {
	g := req.Grid
	g.Normalize()
	specs := g.Expand(req.Seed, req.MaxRounds)
	for i := range specs {
		specs[i].Normalize()
	}
	return specs
}

// validateKeys times RunSpec.Validate and ContentKey over specs.
func validateKeys(rc *runCtx, specs []spec.RunSpec) error {
	for i := range specs {
		s := specs[i]
		if err := rc.tr.time("spec.RunSpec.Validate", "", 0, s.Validate); err != nil {
			return err
		}
		_ = rc.tr.time("spec.RunSpec.ContentKey", "", 0, func() error { _ = s.ContentKey(); return nil })
	}
	return nil
}

// timed runs each segment's sweeps back to back; sweep_s is the median
// segment's wall time and jobs_per_s the median segment's cell rate.
func (sw *sweeper) timed(rc *runCtx) (err error) {
	if rc.tr.on {
		// The closure needs the workers' idle time; tracing samples it on
		// the connection the sweep workloads leave free.
		busy := startBusySampler(rc.c2)
		defer func() {
			var serr error
			rc.p.idleS, serr = busy.idle()
			err = errors.Join(err, serr)
		}()
	}
	sw.runs = nil
	var rates []float64
	for seg, reqs := range sw.segments {
		start := time.Now()
		done := 0
		for _, req := range reqs {
			run, err := runSweep(rc, req)
			if err != nil {
				return err
			}
			run.segment = seg
			for _, c := range run.cells {
				if c.State == serve.StateDone {
					done++
				}
			}
			sw.runs = append(sw.runs, run)
		}
		wall := time.Since(start).Seconds()
		rc.p.walls = append(rc.p.walls, wall)
		rates = append(rates, float64(done)/wall)
		rc.p.timedS += wall
	}
	rc.p.windowS = median(rc.p.walls)
	rc.p.jobsPerS = median(rates)
	return nil
}

// runSweep submits one sweep and tails its results to the summary line.
func runSweep(rc *runCtx, req serve.SweepRequest) (sweepRun, error) {
	run := sweepRun{specs: expand(req), sent: time.Now()}
	var view serve.SweepView
	if err := rc.c.call("POST", "/v1/sweeps", "/v1/sweeps", req, &view, "", 0); err != nil {
		return run, err
	}
	rc.p.submitMS = append(rc.p.submitMS, time.Since(run.sent).Seconds()*1e3)
	run.id = view.ID
	err := rc.c.stream("/v1/sweeps/{id}/results", "/v1/sweeps/"+view.ID+"/results", view.ID, 0, func(line []byte) (bool, error) {
		var ev serve.SweepEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return false, err
		}
		if ev.Cell != nil {
			run.cells = append(run.cells, *ev.Cell)
		}
		if ev.Sweep != nil {
			run.summary = ev.Sweep
			return false, nil
		}
		return true, nil
	})
	if err != nil {
		return run, err
	}
	if run.summary == nil {
		return run, fmt.Errorf("sweep %s: results stream ended without a summary line", run.id)
	}
	run.rootSpan = rc.tr.add("sweep", run.id, 0, run.sent, time.Now())
	return run, nil
}

// collect fetches every cell's child run (per-trial reports, Theorem 1
// diagnostics and server stamps) and derives the cell-level end-to-end
// figures.
func (sw *sweeper) collect(rc *runCtx) error {
	p := rc.p
	perSeg := make([][]float64, len(sw.segments))
	for _, run := range sw.runs {
		if len(run.cells) != len(run.specs) {
			return fmt.Errorf("sweep %s: streamed %d cells, expected %d", run.id, len(run.cells), len(run.specs))
		}
		for _, cell := range run.cells {
			p.attempted++
			rec := jobRecord{spec: run.specs[cell.Index]}
			// A cell is due when its sweep is sent.
			ms := math.Inf(1)
			if cell.JobID != "" && cell.State == serve.StateDone {
				v, err := rc.c.getJob(cell.JobID, cell.JobID, 0)
				if err != nil {
					return err
				}
				rec.view = v
				if v.Started != nil && v.Finished != nil {
					rc.tr.add("cell", v.ID, run.rootSpan, *v.Started, *v.Finished)
					ms = v.Finished.Sub(run.sent).Seconds() * 1e3
				}
			}
			if math.IsInf(ms, 1) {
				p.failed++
			}
			p.latencyMS = append(p.latencyMS, ms)
			perSeg[run.segment] = append(perSeg[run.segment], ms)
			p.jobs = append(p.jobs, rec)
		}
	}
	for _, xs := range perSeg {
		last, _ := percentile(xs, 100)
		p.midMS = append(p.midMS, median(xs))
		p.tailMS = append(p.tailMS, last)
	}
	return nil
}

// gateCommon checks what every sweep run must satisfy: each streamed cell
// is done, the summary agrees, and each child run's request is exactly
// the spec the client-side expansion produced.
func (sw *sweeper) gateCommon(rc *runCtx) error {
	for _, run := range sw.runs {
		if run.summary.State != serve.StateDone || run.summary.Aggregate.Done != len(run.specs) {
			return fmt.Errorf("sweep %s: state %s with %d/%d cells done", run.id, run.summary.State, run.summary.Aggregate.Done, len(run.specs))
		}
	}
	for _, j := range rc.p.jobs {
		if j.view.Result == nil {
			return fmt.Errorf("cell %s has no result", j.view.ID)
		}
		if err := sameSpec(j.spec, j.view); err != nil {
			return err
		}
	}
	return nil
}

// sameSpec checks that the server ran exactly the generated spec.
func sameSpec(want spec.RunSpec, v serve.JobView) error {
	got := v.Request
	got.Seed = v.Result.Seed
	a, _ := json.Marshal(want) // marshalling a RunSpec cannot fail
	b, _ := json.Marshal(got)
	if string(a) != string(b) {
		return fmt.Errorf("job %s ran %s, generated %s", v.ID, b, a)
	}
	return nil
}

// topologyFor returns the graph a spec runs on, the way the server gets
// it: loaded from the workload's artifact directory when it holds one,
// else built from the spec.
func topologyFor(rc *runCtx, gs spec.GraphSpec) (core.Topology, error) {
	key := gs.Key()
	if g, ok := rc.topos[key]; ok {
		return g, nil
	}
	var g core.Topology
	err := artifact.ErrNotFound
	if rc.env.art != nil {
		err = rc.tr.time("artifact.Dir.Load", "", 0, func() error {
			a, err := rc.env.art.Load(key)
			if err == nil {
				g = a.Graph
			}
			return err
		})
	}
	if errors.Is(err, artifact.ErrNotFound) {
		err = rc.tr.time("spec.GraphSpec.Build", "", 0, func() (err error) {
			g, err = gs.Build()
			return err
		})
	}
	if err != nil {
		return nil, fmt.Errorf("topology %s: %w", key, err)
	}
	rc.topos[key] = g
	return g, nil
}

// csrBytes is the computed size of a topology's CSR arrays (int32 offsets
// and adjacency); 0 for virtual topologies.
func csrBytes(g core.Topology) int64 {
	cg, ok := g.(*graph.Graph)
	if !ok {
		return 0
	}
	off, adj := cg.CSR()
	return 4 * int64(len(off)+len(adj))
}

// edgesOf is a topology's materialised edge count; 0 for virtual ones.
func edgesOf(g core.Topology) int64 {
	if cg, ok := g.(*graph.Graph); ok {
		return int64(cg.M())
	}
	return 0
}

// sweepDense is the paper's regime: dense graphs (d = ⌈n^α⌉) swept over
// n, α and δ with the synchronous Best-of-3 rule.
type sweepDense struct {
	sweeper
	topologies []spec.GraphSpec
}

// perSegment is a segment's share of a per-second trial count.
func perSegment(seconds int, perSecond float64) int {
	return max(1, int(math.Round(float64(seconds)*perSecond/segments)))
}

// denseGraphs are sweep-dense's two graph templates (n set by the grid).
func denseGraphs(seed uint64) []spec.GraphSpec {
	return []spec.GraphSpec{
		{Family: "dense", Alpha: 0.5, Seed: rng.ChildSeed(seed, labelGraph, 0)},
		{Family: "dense", Alpha: 0.6, Seed: rng.ChildSeed(seed, labelGraph, 1)},
	}
}

// kernelGraph is the topology the traced run times the sampling kernel's
// primitives on, whatever the workload: sweep-dense's largest CSR (dense,
// n = 2^14, α = 0.6, 22 MB, well beyond the per-core L2), so the
// dynamics.kernel figures mean the same on every workload.
func kernelGraph(seed uint64) spec.GraphSpec {
	gs := denseGraphs(seed)[1]
	gs.N = 1 << 14
	return gs
}

func newSweepDense(seed uint64, seconds int) *sweepDense {
	grid := spec.Grid{
		Graphs: denseGraphs(seed),
		NS:     []int{1 << 13, 1 << 14},
		Deltas: []float64{0.02, 0.05, 0.1, 0.2},
		Trials: []int{perSegment(seconds, denseTrialsPerSecond)},
	}
	w := &sweepDense{}
	for k := uint64(0); k < segments; k++ {
		w.segments = append(w.segments, []serve.SweepRequest{{Grid: grid, Seed: rng.ChildSeed(seed, labelSweep, 0, k)}})
	}
	for _, tmpl := range grid.Graphs {
		for _, n := range grid.NS {
			gs := tmpl
			gs.N = n
			w.topologies = append(w.topologies, gs)
		}
	}
	return w
}

func (w *sweepDense) options() envOptions { return envOptions{store: true, artifacts: true} }

// setup preprocesses every topology, which the server then loads instead
// of generating.
func (w *sweepDense) setup(rc *runCtx) error {
	if err := preprocess(rc, w.topologies); err != nil {
		return err
	}
	return w.validateKeys(rc)
}

// preprocess is the bo3graph path: generate each topology once and
// publish its artifact in the server's artifact directory.
func preprocess(rc *runCtx, topologies []spec.GraphSpec) error {
	for _, gs := range topologies {
		var a *artifact.Artifact
		err := rc.tr.time("artifact.FromSpec", "", 0, func() (err error) {
			a, err = artifact.FromSpec(gs)
			return err
		})
		if err != nil {
			return err
		}
		if err := rc.tr.time("artifact.Dir.Store", "", 0, func() error {
			_, err := rc.env.art.Store(a)
			return err
		}); err != nil {
			return err
		}
		rc.p.setupBuilds++
		rc.p.setupEdges += edgesOf(a.Graph)
		rc.p.artifactBytes += int64(a.EncodedSize())
	}
	return nil
}

// validateKeys times RunSpec.Validate and ContentKey over every cell the
// timed part will run.
func (sw *sweeper) validateKeys(rc *runCtx) error {
	for _, reqs := range sw.segments {
		for _, req := range reqs {
			if err := validateKeys(rc, expand(req)); err != nil {
				return err
			}
		}
	}
	return nil
}

// gate is the Theorem 1 check: every cell whose instance satisfies the
// hypotheses, with δ above the 4/√n finite-size floor, must have Red win
// every trial within the predicted number of rounds.
func (w *sweepDense) gate(rc *runCtx) error {
	if err := w.gateCommon(rc); err != nil {
		return err
	}
	return gateTheorem1(rc.p.jobs)
}

func gateTheorem1(jobs []jobRecord) error {
	for _, j := range jobs {
		r := j.view.Result
		floor := 4 / math.Sqrt(float64(j.spec.Graph.N))
		if !r.PreconditionOK || j.spec.Delta < floor {
			continue
		}
		if r.RedWins != r.Trials || r.MeanRounds > float64(r.PredictedRounds) {
			return fmt.Errorf("cell %s (n=%d alpha=%v delta=%v): red won %d/%d trials, mean rounds %.2f vs predicted %d",
				j.view.ID, j.spec.Graph.N, j.spec.Graph.Alpha, j.spec.Delta, r.RedWins, r.Trials, r.MeanRounds, r.PredictedRounds)
		}
	}
	return nil
}

// sweepVariants runs the non-default engine paths on one random-regular
// topology: (a) the variant axis, (b) rule noise × {sync, async} to a
// fixed round cap (the E19 slice).
type sweepVariants struct {
	sweeper
	graph spec.GraphSpec
}

func newSweepVariants(seed uint64, seconds int) *sweepVariants {
	gs := spec.GraphSpec{Family: "random-regular", N: 1 << 15, D: 32, Seed: rng.ChildSeed(seed, labelGraph, 2)}
	a := spec.Grid{
		Graphs: []spec.GraphSpec{gs},
		Deltas: []float64{0.1},
		Variants: []spec.VariantSpec{
			{Name: "sync"}, {Name: "async"},
			{Name: "stubborn", StubbornFrac: 0.2}, {Name: "plurality", Q: 4},
		},
		Trials: []int{perSegment(seconds, variantsTrialsPerSecond)},
	}
	b := spec.Grid{
		Graphs:   []spec.GraphSpec{gs},
		Deltas:   []float64{0.1},
		Noises:   []float64{0.01, 0.05},
		Variants: []spec.VariantSpec{{Name: "sync"}, {Name: "async"}},
		Trials:   []int{perSegment(seconds, noiseTrialsPerSecond)},
	}
	w := &sweepVariants{graph: gs}
	for k := uint64(0); k < segments; k++ {
		w.segments = append(w.segments, []serve.SweepRequest{
			{Grid: a, Seed: rng.ChildSeed(seed, labelSweep, 1, k)},
			{Grid: b, MaxRounds: noiseMaxRounds, Seed: rng.ChildSeed(seed, labelSweep, 2, k)},
		})
	}
	return w
}

func (w *sweepVariants) options() envOptions { return envOptions{store: true} }

// setup builds the topology on the serving path: one single-round job on
// it makes the server's graph pool generate and keep it.
func (w *sweepVariants) setup(rc *runCtx) error {
	warm := spec.RunSpec{Graph: w.graph, Delta: 0.1, Trials: 1, MaxRounds: 1, Seed: rng.ChildSeed(rc.seed, labelSetupJob, 0)}
	var v serve.JobView
	if err := rc.c.call("POST", "/v1/runs", "/v1/runs", warm, &v, "setup", 0); err != nil {
		return err
	}
	state, err := rc.c.waitJob(v.ID, "setup", 0)
	if err != nil {
		return err
	}
	if state != serve.StateDone {
		return fmt.Errorf("warm-up job %s ended %s", v.ID, state)
	}
	return w.validateKeys(rc)
}

func (w *sweepVariants) gate(rc *runCtx) error { return w.gateCommon(rc) }
