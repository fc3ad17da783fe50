package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
	"repro/internal/serve"
	"repro/spec"
)

// jobs-open sizing. jobsCapacity is the closed-loop capacity of this mix
// with 2 clients (phase 2's jobs_per_s) at the parent commit on a 2-CPU
// Xeon (Sapphire Rapids, KVM): 26 runs had a median of 1113 jobs/s,
// listed in record.json. jobsRate is R, the phase-1 Poisson arrival rate,
// rateShare of that capacity. Phase 1 runs phase1Share of --seconds at R,
// in `segments` open-loop windows; phase 2 runs phase2Batches closed-loop
// batches of a fixed job count, together sized to phase2Share of
// --seconds at jobsCapacity, after one more batch that is not timed.
// Phase 2 gets the larger share because only its figures carry a bound
// (see unbounded in main.go).
const (
	jobsCapacity = 1100.0
	rateShare    = 0.4
	jobsRate     = rateShare * jobsCapacity
	phase1Share  = 0.4
	phase2Share  = 0.6
	// phase2Batches is more than segments: batch walls within one run
	// differed by up to 1.9×, and the median of more of them moves less.
	phase2Batches = 9
	// minPhase1Jobs keeps phase 1's 99th percentile reportable at any
	// --seconds: it needs 100·tailBeyond samples, plus margin for the
	// Poisson count.
	minPhase1Jobs = 1200
	// readerLag is how long after a job's send the completion reader GETs
	// it: long enough that one GET almost always finds it finished, short
	// enough (~90 jobs at R) to stay far inside the server's 1024-job
	// retention.
	readerLag = 200 * time.Millisecond
	// warmupJobs is the closed-loop batch set-up runs before the timed
	// part: it fills the server's 1024-job retention table, so every timed
	// submission pays the same pruning cost, and brings the heap and the
	// store to their steady size.
	warmupJobs = 1200
)

var (
	jobDeltas = []float64{0.05, 0.1, 0.2}
	mfNs      = []int{1 << 12, 1 << 13, 1 << 14, 1 << 15}
	rrNs      = []int{256, 512, 1024}
)

const (
	rrSeeds     = 4 // graph seeds per rrNs entry: 12 topologies
	resubShare  = 0.2
	mfShare     = 0.4 // of all jobs; the rest are random-regular
	mfTrials    = 8
	rrTrials    = 4
	setupPerMFN = 3
)

// plannedJob is one generated submission; resub ≥ 0 names the set-up spec
// it repeats exactly.
type plannedJob struct {
	spec  spec.RunSpec
	resub int
}

// jobsOpen is independent users submitting small jobs: an open-loop
// Poisson phase, then a closed-loop phase with 2 clients.
type jobsOpen struct {
	rr         []spec.GraphSpec
	setupSpecs []spec.RunSpec
	setupRes   []*serve.RunResult
	schedule   []time.Duration
	window     time.Duration // one of the open-loop windows
	batch      int           // jobs in one closed-loop batch
	warmup     []plannedJob
	phase1     []plannedJob
	phase2     []plannedJob
}

func newJobsOpen(seed uint64, seconds int) *jobsOpen {
	w := &jobsOpen{}
	for i, n := range rrNs {
		for s := 0; s < rrSeeds; s++ {
			w.rr = append(w.rr, spec.GraphSpec{Family: "random-regular", N: n, D: 32, Seed: rng.ChildSeed(seed, labelGraph, 10, uint64(i*rrSeeds+s))})
		}
	}
	k := uint64(0)
	next := func() uint64 { k++; return rng.ChildSeed(seed, labelSetupJob, k) }
	for i, gs := range w.rr {
		w.setupSpecs = append(w.setupSpecs, spec.RunSpec{Graph: gs, Delta: jobDeltas[i%len(jobDeltas)], Trials: rrTrials, Seed: next()})
	}
	for _, n := range mfNs {
		for j := 0; j < setupPerMFN; j++ {
			w.setupSpecs = append(w.setupSpecs, spec.RunSpec{Graph: spec.GraphSpec{Family: "complete-virtual", N: n}, Delta: jobDeltas[j%len(jobDeltas)], Trials: mfTrials, Seed: next()})
		}
	}
	phase1S := max(phase1Share*float64(seconds), minPhase1Jobs/jobsRate)
	w.window = time.Duration(phase1S * float64(time.Second) / segments)
	w.schedule = poissonSchedule(rng.New(rng.ChildSeed(seed, labelSchedule)), jobsRate, segments*w.window)
	w.phase1 = w.mix(seed, 1, len(w.schedule))
	w.batch = max(1, int(math.Round(phase2Share*float64(seconds)*jobsCapacity/phase2Batches)))
	w.phase2 = w.mix(seed, 2, (1+phase2Batches)*w.batch)
	w.warmup = w.mix(seed, 0, warmupJobs)
	return w
}

// mix draws count jobs of one phase: resubmissions of set-up specs,
// mean-field K_n jobs, and small random-regular jobs on the warmed
// topologies, each fresh job with its own seed (so it misses the store).
func (w *jobsOpen) mix(seed uint64, phase uint64, count int) []plannedJob {
	src := rng.New(rng.ChildSeed(seed, labelMix, phase))
	out := make([]plannedJob, count)
	for i := range out {
		u := src.Float64()
		delta := jobDeltas[src.Intn(len(jobDeltas))]
		s := rng.ChildSeed(seed, labelJob, phase, uint64(i))
		switch {
		case u < resubShare:
			r := src.Intn(len(w.setupSpecs))
			out[i] = plannedJob{spec: w.setupSpecs[r], resub: r}
		case u < resubShare+mfShare:
			gs := spec.GraphSpec{Family: "complete-virtual", N: mfNs[src.Intn(len(mfNs))]}
			out[i] = plannedJob{spec: spec.RunSpec{Graph: gs, Delta: delta, Trials: mfTrials, Seed: s}, resub: -1}
		default:
			gs := w.rr[src.Intn(len(w.rr))]
			out[i] = plannedJob{spec: spec.RunSpec{Graph: gs, Delta: delta, Trials: rrTrials, Seed: s}, resub: -1}
		}
	}
	return out
}

func (w *jobsOpen) options() envOptions { return envOptions{store: true, artifacts: true} }

// setup preprocesses the random-regular topologies into the artifact
// directory (the bo3graph path), then runs every set-up spec to
// completion, which loads or builds all 16 topologies into the server's
// graph pool (its default capacity, so the timed part neither builds nor
// evicts) and records the results the timed part's resubmissions must be
// answered with.
func (w *jobsOpen) setup(rc *runCtx) error {
	if err := preprocess(rc, w.rr); err != nil {
		return err
	}
	ids := make([]string, len(w.setupSpecs))
	for i, s := range w.setupSpecs {
		var v serve.JobView
		if err := rc.c.call("POST", "/v1/runs", "/v1/runs", s, &v, "setup", 0); err != nil {
			return err
		}
		ids[i] = v.ID
	}
	w.setupRes = make([]*serve.RunResult, len(ids))
	for i, id := range ids {
		if _, err := rc.c.waitJob(id, "setup", 0); err != nil {
			return err
		}
		v, err := rc.c.getJob(id, "setup", 0)
		if err != nil {
			return err
		}
		if v.State != serve.StateDone || v.Result == nil {
			return fmt.Errorf("set-up job %s ended %s: %s", id, v.State, v.Error)
		}
		w.setupRes[i] = v.Result
	}
	if _, _, err := w.closedLoop(rc, w.warmup, 0, 0); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	var specs []spec.RunSpec
	for _, ph := range [][]plannedJob{w.phase1, w.phase2} {
		for _, pj := range ph {
			specs = append(specs, pj.spec)
		}
	}
	return validateKeys(rc, specs)
}

func (w *jobsOpen) record(pj plannedJob, phase int) jobRecord {
	rec := jobRecord{spec: pj.spec, phase: phase, resubmit: pj.resub >= 0}
	if rec.resubmit {
		rec.want = w.setupRes[pj.resub]
	}
	return rec
}

// submit POSTs one job; a 429 is a refusal, not an error.
func submit(c *client, rec *jobRecord, trace string) error {
	err := c.call("POST", "/v1/runs", "/v1/runs", rec.spec, &rec.view, trace, 0)
	rec.acked = time.Now()
	var he *httpError
	if errors.As(err, &he) && he.code == http.StatusTooManyRequests {
		rec.refused = true
		return nil
	}
	return err
}

// closedLoop runs a batch of planned jobs on both connections: each
// client submits a job, waits on its event stream unless the POST came
// back finished, and takes the next. It returns the records in plan order
// and the batch's wall time.
func (w *jobsOpen) closedLoop(rc *runCtx, planned []plannedJob, phase, first int) ([]jobRecord, time.Duration, error) {
	recs := make([]jobRecord, len(planned))
	var next atomic.Int64
	errs := make([]error, 2)
	var wg sync.WaitGroup
	start := time.Now()
	for k, c := range []*client{rc.c, rc.c2} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for errs[k] == nil {
				i := int(next.Add(1)) - 1
				if i >= len(recs) {
					return
				}
				recs[i] = w.record(planned[i], phase)
				errs[k] = closedJob(c, &recs[i], fmt.Sprintf("job-%d-%d", phase, first+i))
			}
		}()
	}
	wg.Wait()
	return recs, time.Since(start), errors.Join(errs...)
}

// closedJob submits one job and, unless the POST came back finished,
// waits on its event stream and then reads its run view: the terminal
// event carries no per-trial reports, and the gate and the traced replay
// need them. Traced and untraced runs send the same requests.
func closedJob(c *client, rec *jobRecord, trace string) error {
	rec.sent = time.Now()
	if err := submit(c, rec, trace); err != nil || rec.refused || terminal(rec.view.State) {
		return err
	}
	if _, err := c.waitJob(rec.view.ID, trace, 0); err != nil {
		return err
	}
	var err error
	rec.view, err = c.getJob(rec.view.ID, trace, 0)
	return err
}

func (w *jobsOpen) timed(rc *runCtx) error {
	p := rc.p
	reader := rc.c2

	// Phase 1: open loop. The sender keeps the schedule whatever the
	// server does; the reader collects each job's terminal view once due.
	recs := make([]jobRecord, len(w.phase1))
	sent := make(chan int, len(recs)) // one send per job, never blocks the sender
	var sendErr, readErr error
	var wg sync.WaitGroup
	wg.Add(2)
	epoch := time.Now()
	go func() {
		defer wg.Done()
		defer close(sent)
		for i, pj := range w.phase1 {
			recs[i] = w.record(pj, 1)
			recs[i].sched = epoch.Add(w.schedule[i])
			if d := time.Until(recs[i].sched); d > 0 {
				time.Sleep(d)
			}
			recs[i].sent = time.Now()
			if err := submit(rc.c, &recs[i], fmt.Sprintf("job-1-%d", i)); err != nil {
				sendErr = err
				return
			}
			sent <- i
		}
	}()
	go func() {
		defer wg.Done()
		for i := range sent {
			rec := &recs[i]
			if rec.refused || terminal(rec.view.State) {
				continue
			}
			time.Sleep(time.Until(rec.sent.Add(readerLag)))
			for {
				v, err := reader.getJob(rec.view.ID, fmt.Sprintf("job-1-%d", i), 0)
				if err != nil {
					readErr = err
					for range sent { // let the sender finish
					}
					return
				}
				rec.view = v
				if terminal(v.State) {
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
	}()
	wg.Wait()
	if err := errors.Join(sendErr, readErr); err != nil {
		return err
	}
	phase1 := time.Since(epoch)
	perWindow := make([][]float64, segments)
	for i := range recs {
		rec := &recs[i]
		p.lateMS = append(p.lateMS, rec.sent.Sub(rec.sched).Seconds()*1e3)
		p.submitMS = append(p.submitMS, rec.acked.Sub(rec.sent).Seconds()*1e3)
		ms := math.Inf(1)
		if !rec.refused && rec.view.State == serve.StateDone && rec.view.Finished != nil {
			ms = rec.view.Finished.Sub(rec.sched).Seconds() * 1e3
		}
		p.latencyMS = append(p.latencyMS, ms)
		k := min(int(w.schedule[i]/w.window), segments-1)
		perWindow[k] = append(perWindow[k], ms)
	}
	for _, xs := range perWindow {
		p.midMS = append(p.midMS, median(xs))
	}
	// The 99th percentile is over the whole phase: a window alone has too
	// few samples beyond it at R.
	tail, ok := percentile(p.latencyMS, 99)
	if !ok {
		return fmt.Errorf("open loop has %d samples, too few for a 99th percentile", len(p.latencyMS))
	}
	p.tailMS = []float64{tail}
	var err error
	if p.snapMid, err = rc.c.scrapeMetrics(); err != nil {
		return err
	}

	// Phase 2: closed loop, 2 clients, in batches of a fixed job count.
	// The first batch, which ran slower than the rest in most runs (the
	// change from the open loop), is gated but not timed.
	var recs2 []jobRecord
	var rates []float64
	for b := 0; b <= phase2Batches; b++ {
		recs, wall, err := w.closedLoop(rc, w.phase2[b*w.batch:(b+1)*w.batch], 2, b*w.batch)
		if err != nil {
			return err
		}
		p.timedS += wall.Seconds()
		recs2 = append(recs2, recs...)
		if b == 0 {
			continue
		}
		done := 0
		for _, rec := range recs {
			if !rec.refused && rec.view.State == serve.StateDone {
				done++
			}
		}
		p.walls = append(p.walls, wall.Seconds())
		rates = append(rates, float64(done)/wall.Seconds())
	}
	p.windowS = median(p.walls)
	p.jobsPerS = median(rates)
	p.timedS += phase1.Seconds()
	p.jobs = append(recs, recs2...)
	p.attempted = len(p.jobs)
	for _, rec := range p.jobs {
		if rec.refused || rec.view.State != serve.StateDone {
			p.failed++
		}
	}
	return nil
}

func (w *jobsOpen) collect(rc *runCtx) error { return nil }

// gate: every resubmission must come back from the store, done, with
// exactly the set-up run's result; every run view must show the spec that
// was generated.
func (w *jobsOpen) gate(rc *runCtx) error { return gateResubmissions(rc.p.jobs) }

func gateResubmissions(jobs []jobRecord) error {
	for _, j := range jobs {
		if j.refused {
			continue
		}
		if j.view.Result != nil {
			if err := sameSpec(j.spec, j.view); err != nil {
				return err
			}
		}
		if !j.resubmit {
			continue
		}
		if j.view.State != serve.StateDone || j.view.Result == nil || !j.view.Result.Cached {
			return fmt.Errorf("resubmission %s came back %s without a stored result", j.view.ID, j.view.State)
		}
		got, _ := json.Marshal(serve.CanonicalResult(*j.view.Result)) // a RunResult always marshals
		want, _ := json.Marshal(serve.CanonicalResult(*j.want))
		if string(got) != string(want) {
			return fmt.Errorf("resubmission %s: stored result differs from the set-up run:\n got %s\nwant %s", j.view.ID, got, want)
		}
	}
	return nil
}
