package main

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
)

func mustParse(t *testing.T, text string) scrape {
	t.Helper()
	sc, err := parseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// stageExposition renders the histogram sums the closures read; a family
// named in drop is left out, as if its layer had not been measured.
func stageExposition(sums map[string]float64, drop string) string {
	var b strings.Builder
	for _, f := range []string{"bo3_job_queue_wait_seconds", "bo3_job_graph_seconds", "bo3_job_exec_seconds", "bo3_job_persist_seconds"} {
		if f != drop {
			b.WriteString(f + "_sum " + ftoa(sums[f]) + "\n")
		}
	}
	if drop != "bo3_http_request_seconds" {
		b.WriteString(`bo3_http_request_seconds_sum{route="POST /v1/runs"} ` + ftoa(sums["post"]) + "\n")
		// Other routes are not part of phase 1's latency.
		b.WriteString(`bo3_http_request_seconds_sum{route="GET /v1/runs/{id}"} 5` + "\n")
	}
	return b.String()
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func TestJobsClosureTripsOnAMissingPart(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// Two phase-1 jobs: due at 0 and 20 ms, sent 1 ms late, finished 10 ms
	// after they were due: 20 ms of latency, 2 ms of it lateness.
	var jobs []jobRecord
	for _, due := range []int{0, 20} {
		fin := at(due + 10)
		jobs = append(jobs, jobRecord{phase: 1, sched: at(due), sent: at(due + 1),
			view: serve.JobView{State: serve.StateDone, Finished: &fin}})
	}
	// A phase-2 job is outside phase 1's latency.
	fin := at(500)
	jobs = append(jobs, jobRecord{phase: 2, sched: at(0), sent: at(0), view: serve.JobView{State: serve.StateDone, Finished: &fin}})
	// The other 18 ms: POST handling 2, queue 4, graph 1, exec 10, persist 1.
	sums := map[string]float64{"post": 0.002, "bo3_job_queue_wait_seconds": 0.004, "bo3_job_graph_seconds": 0.001,
		"bo3_job_exec_seconds": 0.010, "bo3_job_persist_seconds": 0.001}
	before := mustParse(t, "")
	mk := func(drop string) *pass {
		return &pass{jobs: jobs, snapSetup: before, snapMid: mustParse(t, stageExposition(sums, drop))}
	}

	c := jobsClosure(mk(""))
	if c.TotalS < 0.0199 || c.TotalS > 0.0201 {
		t.Fatalf("total = %v s, want 0.020", c.TotalS)
	}
	if err := c.check(closureTolerance); err != nil {
		t.Fatalf("parts that add up were rejected: %v", err)
	}
	for _, drop := range []string{"bo3_job_exec_seconds", "bo3_job_queue_wait_seconds", "bo3_http_request_seconds"} {
		if err := jobsClosure(mk(drop)).check(closureTolerance); err == nil {
			t.Errorf("closure without %s passed", drop)
		}
	}
	// The sender's lateness is a part too.
	late := mk("")
	late.jobs = append([]jobRecord(nil), jobs...)
	for i := range late.jobs[:2] {
		late.jobs[i].sent = late.jobs[i].sched
	}
	if err := jobsClosure(late).check(closureTolerance); err == nil {
		t.Error("closure without the sender's lateness passed")
	}
	if err := jobsClosure(&pass{snapSetup: before, snapMid: before}).check(closureTolerance); err == nil {
		t.Error("an empty phase 1 passed")
	}
}

func TestSweepsClosureTripsOnAMissingPart(t *testing.T) {
	// 2 workers × 10 s = 20 worker-seconds: 3 idle, 1 graph, 15.5 exec,
	// 0.5 persist.
	sums := map[string]float64{"bo3_job_graph_seconds": 1, "bo3_job_exec_seconds": 15.5, "bo3_job_persist_seconds": 0.5}
	p := &pass{timedS: 10, idleS: 3, snapSetup: mustParse(t, ""), snapTimed: mustParse(t, stageExposition(sums, ""))}
	if err := sweepsClosure(p).check(closureTolerance); err != nil {
		t.Fatalf("parts that add up were rejected: %v", err)
	}
	noIdle := *p
	noIdle.idleS = 0
	if err := sweepsClosure(&noIdle).check(closureTolerance); err == nil {
		t.Error("closure without the sampled idle time passed")
	}
	noExec := *p
	noExec.snapTimed = mustParse(t, stageExposition(sums, "bo3_job_exec_seconds"))
	if err := sweepsClosure(&noExec).check(closureTolerance); err == nil {
		t.Error("closure without exec passed")
	}
}
