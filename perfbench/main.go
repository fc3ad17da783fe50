// Command perfbench is the repository's benchmark. It runs one named
// workload against an in-process bo3serve (serve.NewManager and
// serve.NewServer on a loopback listener, 2 workers, at most 2 client
// connections), checks the outputs, and prints every metric by name with
// its unit. The last line of standard output is the JSON result:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// workload runs untraced and then traced with the same seed, the traced
// run replays every executed spec through the library and times the
// kernel primitives, and the metrics are the per-layer ones. A run whose
// outputs fail a check prints no result and exits 1.
//
// Run it from the repository root with perfbench/run.sh, which builds it
// from source:
//
//	bash perfbench/run.sh --workload jobs-open --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the server sees; BENCHMARK.json
// fixes their bounds.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sweep_s", "s"},
	{"jobs_per_s", "jobs/s"},
	{"rss_peak_mb", "MiB"},
}

// unbounded are end-to-end figures an untraced run prints on standard
// error and writes to its results file but not to the result line, which
// carries only metrics that hold a bound. job_p50_ms and job_p99_ms: on
// jobs-open, the open loop's latency follows how quickly the shared
// 2-vCPU host wakes the process, and between seeds minutes apart its
// median moved by up to 0.38 and its 99th percentile by up to 0.8 of
// their medians (IQR). failed_share: it reads 0 whenever nothing fails.
var unbounded = []metricDef{
	{"job_p50_ms", "ms"},
	{"job_p99_ms", "ms"},
	{"failed_share", "ratio"},
}

// perLayer are the traced run's per-layer metrics. A layer that does no
// work on a workload reports 0.
var perLayer = []metricDef{
	{"serve.submit_p50_ms", "ms"},
	{"serve.http_s", "s"},
	{"serve.queue_wait_s", "s"},
	{"serve.queue_wait_p99_ms", "ms"},
	{"serve.rejected", "count"},
	{"serve.worker_busy_share", "ratio"},
	{"serve.sweep_overhead_s", "s"},
	{"store.writes", "count"},
	{"store.write_s", "s"},
	{"store.bytes_appended", "bytes"},
	{"store.reads", "count"},
	{"store.read_s", "s"},
	{"store.hit_ratio", "ratio"},
	{"bus.published", "count"},
	{"bus.publish_s", "s"},
	{"bus.dropped", "count"},
	{"spec.validate_key_s", "s"},
	{"graph.builds", "count"},
	{"graph.build_s", "s"},
	{"graph.build_ns_per_edge", "ns"},
	{"graph.pool_hit_ratio", "ratio"},
	{"graph.fetch_s", "s"},
	{"graph.coalesce_wait_s", "s"},
	{"artifact.store_s", "s"},
	{"artifact.bytes_written", "bytes"},
	{"artifact.loads", "count"},
	{"artifact.load_s", "s"},
	{"artifact.bytes_read", "bytes"},
	{"opinion.init_s", "s"},
	{"opinion.init_ns_per_vertex", "ns"},
	{"dynamics.trials", "count"},
	{"dynamics.rounds", "count"},
	{"dynamics.vertex_rounds", "count"},
	{"dynamics.round_s", "s"},
	{"dynamics.ns_per_vertex_round.sync", "ns"},
	{"dynamics.ns_per_vertex_round.noise", "ns"},
	{"dynamics.ns_per_vertex_round.async", "ns"},
	{"dynamics.ns_per_vertex_round.stubborn", "ns"},
	{"dynamics.ns_per_vertex_round.plurality", "ns"},
	{"dynamics.ns_per_round.meanfield", "ns"},
	{"dynamics.kernel.rng_ns_per_word", "ns"},
	{"dynamics.kernel.neighbor_ns", "ns"},
	{"dynamics.kernel.bitset_get_ns", "ns"},
	{"dynamics.kernel.setword_ns", "ns"},
	{"dynamics.kernel.csr_bytes", "bytes"},
	{"core.overhead_s", "s"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_share", "ratio"},
	{"trace.closure_gap_share", "ratio"},
}

// workloads maps each workload name to its constructor. sweep-dense is
// not in BENCHMARK.json: its 3-22 MB CSRs make its wall time follow how
// much of the shared machine's memory bandwidth and last-level cache other
// tenants leave free, which moved it by up to 2.5× between runs minutes
// apart. It stays runnable for measuring the paper's regime by hand.
var workloads = map[string]func(seed uint64, seconds int) workload{
	"sweep-dense":    func(s uint64, n int) workload { return newSweepDense(s, n) },
	"sweep-variants": func(s uint64, n int) workload { return newSweepVariants(s, n) },
	"jobs-open":      func(s uint64, n int) workload { return newJobsOpen(s, n) },
}

// setupRepeats is how many times an untraced run sets up; setup_s is
// their median.
const setupRepeats = 3

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: sweep-dense, sweep-variants or jobs-open")
	seed := flag.Uint64("seed", 1, "seed every input is derived from")
	seconds := flag.Int("seconds", 10, "run length the workload is sized to")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload sweep-dense|sweep-variants|jobs-open --seed N --seconds S --trace 0|1")
		return 2
	}
	// Results, spans and each server's scratch directory live under the
	// checkout's .bench_build; the scratch directories are removed as each
	// server closes.
	out := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(out, 0o755); err != nil {
		logf("%v", err)
		return 1
	}
	logf("%s seed=%d seconds=%d trace=%d go=%s nproc=%d GOMAXPROCS=%d", *name, *seed, *seconds, *trace,
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))

	stem := filepath.Join(out, fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *trace))
	res, report, err := execute(mk, *seed, *seconds, *trace == 1, out, stem)
	if err != nil {
		if report != nil {
			_ = writeJSON(stem+".json", report) // best effort: details of the invalid run
		}
		logf("invalid run: %v", err)
		return 1
	}
	report["workload"] = *name
	report["seed"] = *seed
	report["seconds"] = *seconds
	report["go_version"] = runtime.Version()
	report["nproc"] = runtime.NumCPU()
	report["gomaxprocs"] = runtime.GOMAXPROCS(0)
	report["result"] = res
	if err := writeJSON(stem+".json", report); err != nil {
		logf("%v", err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-42s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	if extra, ok := report["unbounded"].(map[string]metricValue); ok {
		for _, d := range unbounded {
			fmt.Fprintf(os.Stderr, "  %-42s %14.6g %s (no bound)\n", d.name, extra[d.name].Value, d.unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// execute runs the workload and returns the result line plus a report of
// the run's details for the results file.
func execute(mk func(uint64, int) workload, seed uint64, seconds int, traced bool, workdir, stem string) (result, map[string]any, error) {
	report := map[string]any{}
	if !traced {
		p, err := measure(mk(seed, seconds), seed, false, setupRepeats, workdir)
		if err != nil {
			return result{}, nil, err
		}
		report["segment_medians_ms"] = p.midMS
		report["segment_walls_s"] = p.walls
		report["segment_tails_ms"] = p.tailMS
		vals := map[string]float64{
			"setup_s":     p.setupS,
			"sweep_s":     p.windowS,
			"job_p50_ms":  median(p.midMS),
			"job_p99_ms":  median(p.tailMS),
			"jobs_per_s":  p.jobsPerS,
			"rss_peak_mb": p.rssMiB,
		}
		report["setup_runs_s"] = p.setupRuns
		report["rounds_executed"] = counterDelta(p.snapSetup, p.snapTimed, "bo3_rounds_total", nil)
		report["exec_s"], _ = histDelta(p.snapSetup, p.snapTimed, "bo3_job_exec_seconds", nil)
		report["latency_samples"] = len(p.latencyMS)
		if tp, ok := tailPercentile(len(p.latencyMS)); ok {
			v, _ := percentile(p.latencyMS, float64(tp))
			report["latency_tail"] = map[string]float64{"percentile": float64(tp), "ms": v}
		}
		res, err := resultOf(p, endToEnd, vals)
		vals["failed_share"] = ratio(float64(p.failed), float64(p.attempted))
		extra := map[string]metricValue{}
		for _, d := range unbounded {
			extra[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
		}
		report["unbounded"] = extra
		return res, report, err
	}
	base, err := measure(mk(seed, seconds), seed, false, 1, workdir)
	if err != nil {
		return result{}, nil, err
	}
	tp, err := measure(mk(seed, seconds), seed, true, 1, workdir)
	if err != nil {
		return result{}, nil, err
	}
	lr := layers(tp, base)
	report["untraced_sweep_s"] = base.windowS
	report["traced_sweep_s"] = tp.windowS
	report["replay_over_served_exec"] = lr.replayRatio
	report["closure"] = lr.closure
	report["closure_tolerance"] = closureTolerance
	report["replay_factor"] = replayFactor
	report["trace_problems"] = lr.problems
	report["csr_bytes_computed"] = tp.csrBytes
	if len(lr.problems) > 0 {
		return result{}, report, fmt.Errorf("traced run fails its validity checks: %s", strings.Join(lr.problems, "; "))
	}
	f, err := os.Create(stem + ".spans.jsonl")
	if err == nil {
		err = writeJSONL(f, tp.spans)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return result{}, nil, err
	}
	res, err := resultOf(tp, perLayer, lr.metrics)
	return res, report, err
}

// resultOf assembles the result line, refusing non-finite values: a
// failed job at the reported percentile, or a layer that never ran where
// it must have.
func resultOf(p *pass, defs []metricDef, vals map[string]float64) (result, error) {
	res := result{Correct: true, Attempted: p.attempted, Failed: p.failed, Metrics: map[string]metricValue{}}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operations attempted")
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
