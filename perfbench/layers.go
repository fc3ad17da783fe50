package main

import (
	"fmt"
	"math"
)

// Validity tolerances of a traced run, stated here and printed with it.
const (
	// closureTolerance bounds |trace.closure_gap_share|: the layers'
	// independently measured times must account for the end-to-end total
	// to within this share.
	closureTolerance = 0.05
	// replayFactor bounds the serial replay's total against the served
	// Σ exec it is applied to: within this factor either way. The two run
	// the same trials (the outcome gate checks it), but the served side
	// runs two jobs at once beside the HTTP server and the benchmark's
	// clients, and the replay runs later: on the 2-vCPU machine the
	// benchmark was sized on, traced runs gave ratios from 0.78 to 1.34,
	// and slow spells of the shared host made identical work up to 1.6×
	// slower for minutes.
	replayFactor = 2.5
)

// layerReport is the traced run's per-layer breakdown.
type layerReport struct {
	metrics map[string]float64
	// replayRatio is the replay total over the served Σ exec.
	replayRatio float64
	closure     closure
	// problems make the traced run invalid.
	problems []string
}

// layers derives the per-layer metrics of a traced pass tp; base is the
// untraced pass with the same seed, for the tracing overhead.
func layers(tp, base *pass) layerReport {
	m := map[string]float64{}
	rep := layerReport{metrics: m}
	before, after := tp.snapSetup, tp.snapTimed
	delta := func(name string) float64 { return counterDelta(before, after, name, nil) }
	hist := func(family string) (sum, count float64) { return histDelta(before, after, family, nil) }
	notScrape := func(l map[string]string) bool { return l["route"] != "GET /metrics" }

	spans := selfByName(tp.spans)
	var queueMS []float64 // one per executed job
	var vertexRounds float64
	for _, j := range tp.jobs {
		v := j.view
		if j.refused || v.Result == nil || v.Result.Cached || v.Started == nil || v.Finished == nil {
			continue
		}
		queueMS = append(queueMS, v.Started.Sub(v.Created).Seconds()*1e3)
		if v.Result.Engine == "general" {
			for _, r := range v.Result.Reports {
				vertexRounds += float64(r.Rounds) * float64(j.spec.Graph.N)
			}
		}
	}

	// serve
	m["serve.submit_p50_ms"] = median(tp.submitMS)
	m["serve.http_s"], _ = histDelta(before, after, "bo3_http_request_seconds", notScrape)
	m["serve.queue_wait_s"], _ = hist("bo3_job_queue_wait_seconds")
	m["serve.queue_wait_p99_ms"], _ = percentile(queueMS, 99)
	m["serve.rejected"] = delta("bo3_jobs_rejected_total") + delta("bo3_sweeps_rejected_total")
	execS, _ := hist("bo3_job_exec_seconds")
	m["serve.worker_busy_share"] = ratio(execS, workers*tp.timedS)
	m["serve.sweep_overhead_s"] = spans["sweep"]

	// store
	m["store.writes"] = delta("bo3_store_appends_total")
	m["store.write_s"], _ = hist("bo3_store_write_seconds")
	m["store.bytes_appended"] = delta("bo3_store_bytes_appended_total")
	readS, reads := hist("bo3_store_read_seconds")
	m["store.reads"], m["store.read_s"] = reads, readS
	m["store.hit_ratio"] = ratio(delta("bo3_store_hits_total"), reads)

	// bus
	m["bus.published"] = delta("bo3_bus_published_total")
	m["bus.publish_s"], _ = hist("bo3_bus_publish_seconds")
	m["bus.dropped"] = delta("bo3_bus_dropped_total")

	// spec
	m["spec.validate_key_s"] = spans["spec.RunSpec.Validate"] + spans["spec.RunSpec.ContentKey"]

	// graph: builds over set-up and timed part, the benchmark's own
	// preprocessing builds included; fetches over the timed part.
	buildS, builds := histDelta(tp.snapStart, after, "bo3_graph_build_seconds", nil)
	edges := tp.setupEdges + tp.serverBuiltEdges
	m["graph.builds"] = builds + float64(tp.setupBuilds)
	m["graph.build_s"] = buildS + spans["artifact.FromSpec"]
	m["graph.build_ns_per_edge"] = ratio(m["graph.build_s"]*1e9, float64(edges))
	hits, misses := delta("bo3_graph_pool_hits_total"), delta("bo3_graph_pool_misses_total")
	m["graph.pool_hit_ratio"] = ratio(hits, hits+misses)
	fetchS, _ := hist("bo3_job_graph_seconds")
	m["graph.fetch_s"] = fetchS
	m["graph.coalesce_wait_s"], _ = hist("bo3_graph_coalesce_wait_seconds")

	// artifact
	m["artifact.store_s"] = spans["artifact.Dir.Store"]
	m["artifact.bytes_written"] = float64(tp.artifactBytes)
	// Loads count over set-up and timed part: jobs-open's server loads its
	// artifacts while warming the pool in set-up. Misses (topologies with
	// no artifact) are timed by the same family but are not loads.
	m["artifact.load_s"], _ = histDelta(tp.snapStart, after, "bo3_artifact_load_seconds", nil)
	loads := counterDelta(tp.snapStart, after, "bo3_artifact_hits_total", nil)
	m["artifact.loads"] = loads
	// Computed: each load reads one whole artifact file, and the
	// workload's artifacts are loaded once each.
	m["artifact.bytes_read"] = ratio(float64(tp.artifactBytes)*loads, float64(tp.setupBuilds))

	// opinion, dynamics, core: the replay's split applied to served Σ exec.
	r := tp.replay
	total := r.totalS()
	rep.replayRatio = ratio(total, execS)
	m["opinion.init_s"] = execS * ratio(r.initS, total)
	m["opinion.init_ns_per_vertex"] = ratio(r.initS*1e9, r.initVertices)
	m["dynamics.trials"] = delta("bo3_trials_total")
	m["dynamics.rounds"] = delta("bo3_rounds_total")
	m["dynamics.vertex_rounds"] = vertexRounds
	m["dynamics.round_s"] = execS * ratio(r.roundS, total)
	for _, path := range []string{pathSync, pathNoise, pathAsync, pathStubborn, pathPlurality} {
		pt := r.paths[path]
		if pt == nil {
			pt = &pathTotals{}
		}
		m["dynamics.ns_per_vertex_round."+path] = ratio(pt.roundS*1e9, pt.vertexRounds)
	}
	if pt := r.paths[pathMeanField]; pt != nil {
		m["dynamics.ns_per_round.meanfield"] = ratio(pt.roundS*1e9, pt.rounds)
	} else {
		m["dynamics.ns_per_round.meanfield"] = 0
	}
	for name, v := range tp.kernel {
		m["dynamics.kernel."+name] = v
	}
	m["core.overhead_s"] = execS - m["opinion.init_s"] - m["dynamics.round_s"]

	// the benchmark itself
	m["loadgen.late_p99_ms"], _ = percentile(tp.lateMS, 99)
	m["trace.overhead_share"] = ratio(tp.windowS-base.windowS, base.windowS)
	var cl closure
	if tp.snapMid != nil {
		cl = jobsClosure(tp)
	} else {
		cl = sweepsClosure(tp)
	}
	rep.closure = cl
	m["trace.closure_gap_share"] = cl.gap()
	if err := cl.check(closureTolerance); err != nil {
		rep.problems = append(rep.problems, err.Error())
	}
	if rep.replayRatio > replayFactor || rep.replayRatio < 1/replayFactor {
		rep.problems = append(rep.problems, fmt.Sprintf("replay total is %.3f × served Σ exec, beyond a factor of %g", rep.replayRatio, replayFactor))
	}
	if len(queueMS) == 0 {
		rep.problems = append(rep.problems, "no executed jobs to replay")
	}
	return rep
}

// part is one share of a closure's total, taken from its own instrument.
type part struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// closure is an end-to-end total and the parts, each measured by a
// different instrument, that should account for it.
type closure struct {
	Total  string  `json:"total"`
	TotalS float64 `json:"total_s"`
	Parts  []part  `json:"parts"`
}

// gap is the share of the total that the parts do not account for; see
// closureGap.
func (c closure) gap() float64 {
	xs := make([]float64, len(c.Parts))
	for i, p := range c.Parts {
		xs[i] = p.Seconds
	}
	return closureGap(c.TotalS, xs...)
}

// check fails when the gap is beyond tol either way, or there is no total
// to close.
func (c closure) check(tol float64) error {
	if c.TotalS <= 0 {
		return fmt.Errorf("closure: %s is empty", c.Total)
	}
	if g := c.gap(); math.Abs(g) > tol {
		return fmt.Errorf("closure gap %.3f beyond ±%.2f of %s (%.3f s; parts %+v)", g, tol, c.Total, c.TotalS, c.Parts)
	}
	return nil
}

// jobsClosure closes jobs-open's phase 1. The total is Σ latency over the
// phase's finished jobs: the sender's scheduled time (client clock) to
// the server's finished stamp. The parts are the sender's lateness
// (client clock), the server's handling of POST /v1/runs (its HTTP
// middleware histogram, store lookups included), and each executed job's
// queue wait, graph fetch, exec and persist stages (the stage
// histograms), all between the set-up scrape and the scrape that ends the
// phase.
func jobsClosure(tp *pass) closure {
	before, after := tp.snapSetup, tp.snapMid
	c := closure{Total: "sum of phase-1 job latencies"}
	var lateS float64
	for _, j := range tp.jobs {
		v := j.view
		if j.phase != 1 || j.refused || v.State != "done" || v.Finished == nil {
			continue
		}
		c.TotalS += v.Finished.Sub(j.sched).Seconds()
		lateS += j.sent.Sub(j.sched).Seconds()
	}
	post, _ := histDelta(before, after, "bo3_http_request_seconds", func(l map[string]string) bool { return l["route"] == "POST /v1/runs" })
	c.Parts = []part{{"loadgen lateness", lateS}, {"POST /v1/runs handling", post}}
	for _, st := range []string{"queue_wait", "graph", "exec", "persist"} {
		s, _ := histDelta(before, after, "bo3_job_"+st+"_seconds", nil)
		c.Parts = append(c.Parts, part{"job " + st, s})
	}
	return c
}

// sweepsClosure closes a sweep workload in worker-seconds: the total is
// workers × the timed part's wall time (client clock). The parts are the
// idle worker-seconds sampled from the bo3_workers_busy gauge on the
// second connection while the timed part ran, and the executed cells'
// graph fetch, exec and persist stages (the stage histograms).
func sweepsClosure(tp *pass) closure {
	before, after := tp.snapSetup, tp.snapTimed
	c := closure{Total: "workers × the timed part's wall time", TotalS: workers * tp.timedS}
	c.Parts = []part{{"idle workers (sampled)", tp.idleS}}
	for _, st := range []string{"graph", "exec", "persist"} {
		s, _ := histDelta(before, after, "bo3_job_"+st+"_seconds", nil)
		c.Parts = append(c.Parts, part{"job " + st, s})
	}
	return c
}
