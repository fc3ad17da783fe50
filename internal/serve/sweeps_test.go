package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/spec"
)

func pollSweepDone(t *testing.T, base, id string) SweepView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var v SweepView
	for time.Now().Before(deadline) {
		doJSON(t, http.MethodGet, base+"/v1/sweeps/"+id, nil, http.StatusOK, &v)
		if v.State != StateRunning {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("sweep %s did not finish over HTTP", id)
	return v
}

// slowSweep is a grid whose cells never reach consensus (cycle at δ = 0)
// and therefore burn their full round budget, keeping the sweep running
// long enough to observe and cancel mid-flight.
func slowSweep(seed uint64) SweepRequest {
	return SweepRequest{
		Grid: SweepGrid{
			Graphs: []GraphSpec{{Family: "cycle"}},
			NS:     []int{4096},
			Deltas: []float64{0},
			Trials: []int{400},
		},
		MaxRounds: 100,
		Seed:      seed,
	}
}

// TestSweepEndToEnd is the acceptance-criterion flow: a 3×2×2 grid expands
// into 12 child cells, all complete, and the aggregate reconciles with the
// per-cell results.
func TestSweepEndToEnd(t *testing.T) {
	ts, mgr := newTestServer(t, Config{Workers: 4})

	req := SweepRequest{
		Grid: SweepGrid{
			Graphs: []GraphSpec{{Family: "complete-virtual"}},
			NS:     []int{64, 96, 128},
			Deltas: []float64{0.1, 0.2},
			Trials: []int{2, 3},
		},
		Seed: 11,
	}
	var accepted SweepView
	doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", req, http.StatusAccepted, &accepted)
	if accepted.ID != "sweep-000000" || accepted.State != StateRunning {
		t.Fatalf("accepted = %s/%s, want sweep-000000 running", accepted.ID, accepted.State)
	}
	if len(accepted.Cells) != 12 {
		t.Fatalf("3×2×2 grid expanded to %d cells, want 12", len(accepted.Cells))
	}

	v := pollSweepDone(t, ts.URL, accepted.ID)
	if v.State != StateDone {
		t.Fatalf("sweep ended %s, want done", v.State)
	}
	agg := v.Aggregate
	if agg.Cells != 12 || agg.Done != 12 || agg.Pending+agg.Failed+agg.Cancelled != 0 {
		t.Fatalf("aggregate counts = %+v, want 12 done", agg)
	}
	wantTrials := 3 * 2 * (2 + 3) // graphs×ns axis (3) × deltas (2) × trial axis sum
	if agg.Trials != wantTrials {
		t.Errorf("aggregate trials = %d, want %d", agg.Trials, wantTrials)
	}
	trials, redWins := 0, 0
	seeds := map[uint64]bool{}
	for i, c := range v.Cells {
		if c.Index != i || c.State != StateDone || c.Result == nil || c.JobID == "" {
			t.Fatalf("cell %d = %+v, want done with result and job id", i, c)
		}
		trials += c.Result.Trials
		redWins += c.Result.RedWins
		if c.Request.Seed == 0 || seeds[c.Request.Seed] {
			t.Errorf("cell %d seed %d is zero or duplicated", i, c.Request.Seed)
		}
		seeds[c.Request.Seed] = true
		// The child run is queryable and attributed to the sweep.
		var jv JobView
		doJSON(t, http.MethodGet, ts.URL+"/v1/runs/"+c.JobID, nil, http.StatusOK, &jv)
		if jv.Sweep != v.ID {
			t.Errorf("cell %d job %s has sweep = %q, want %q", i, c.JobID, jv.Sweep, v.ID)
		}
	}
	if trials != agg.Trials || redWins != agg.RedWins {
		t.Errorf("aggregate (%d trials, %d wins) does not reconcile with cells (%d, %d)",
			agg.Trials, agg.RedWins, trials, redWins)
	}
	if agg.RedWinHi < agg.RedWinRate || agg.RedWinLo > agg.RedWinRate || agg.MeanRounds <= 0 {
		t.Errorf("aggregate stats implausible: %+v", agg)
	}

	// All 12 cells share one topology axis of 3 graphs: at most 3 builds,
	// at least 9 pool hits.
	if hits := mgr.Cache().Stats().Hits; hits < 9 {
		t.Errorf("graph pool hits = %d, want >= 9 for a shared-topology grid", hits)
	}

	var stats Stats
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, http.StatusOK, &stats)
	if stats.SweepsSubmitted != 1 || stats.SweepsCompleted != 1 || stats.SweepCellsFinished != 12 {
		t.Errorf("sweep stats = %+v", stats)
	}
	if stats.Submitted != 12 {
		t.Errorf("child runs submitted = %d, want 12", stats.Submitted)
	}
}

// TestSweepDeterministicAggregate submits the same sweep twice and demands
// byte-identical aggregates and per-cell seeds: the acceptance criterion
// for server-side determinism.
func TestSweepDeterministicAggregate(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 4})
	req := SweepRequest{
		Grid: SweepGrid{
			Graphs: []GraphSpec{{Family: "random-regular", D: 16, Seed: 3}},
			NS:     []int{256, 512},
			Deltas: []float64{0.05, 0.15},
			Trials: []int{4},
		},
		Seed:        77,
		Concurrency: 2,
	}
	var aggs [2][]byte
	var views [2]SweepView
	for round := range aggs {
		var accepted SweepView
		doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", req, http.StatusAccepted, &accepted)
		views[round] = pollSweepDone(t, ts.URL, accepted.ID)
		b, err := json.Marshal(views[round].Aggregate)
		if err != nil {
			t.Fatal(err)
		}
		aggs[round] = b
	}
	if !bytes.Equal(aggs[0], aggs[1]) {
		t.Errorf("same seed produced different aggregates:\n%s\n%s", aggs[0], aggs[1])
	}
	for i := range views[0].Cells {
		a, b := views[0].Cells[i], views[1].Cells[i]
		if a.Request.Seed != b.Request.Seed {
			t.Errorf("cell %d seeds differ across identical sweeps: %d vs %d", i, a.Request.Seed, b.Request.Seed)
		}
		if a.Result == nil || b.Result == nil {
			t.Fatalf("cell %d missing result", i)
		}
		if a.Result.RedWins != b.Result.RedWins || a.Result.MeanRounds != b.Result.MeanRounds {
			t.Errorf("cell %d results differ: %+v vs %+v", i, a.Result, b.Result)
		}
	}
}

// TestSweepValidation rejects each bad grid with its own cause. The server
// caps only MaxSweepCells, so every other limit keeps its default.
func TestSweepValidation(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1, Limits: Limits{MaxSweepCells: 8}})
	cases := map[string]struct {
		req   SweepRequest
		cause string
	}{
		"no graphs": {SweepRequest{Grid: SweepGrid{Deltas: []float64{0.1}}}, "grid.graphs must list at least one topology"},
		"no deltas": {SweepRequest{Grid: SweepGrid{Graphs: []GraphSpec{{Family: "cycle", N: 8}}}}, "grid.deltas must list at least one imbalance"},
		"ns on torus": {SweepRequest{Grid: SweepGrid{
			Graphs: []GraphSpec{{Family: "torus", Rows: 4, Cols: 4}},
			NS:     []int{16},
			Deltas: []float64{0.1},
		}}, `family "torus" does not take n`},
		"server cap": {SweepRequest{Grid: SweepGrid{
			Graphs: []GraphSpec{{Family: "cycle"}},
			NS:     []int{8, 16, 32},
			Deltas: []float64{0.1, 0.2, 0.3},
		}}, "grid expands to 9 cells, exceeding the cap of 8"},
		"request cap": {SweepRequest{
			Grid: SweepGrid{
				Graphs: []GraphSpec{{Family: "cycle"}},
				NS:     []int{8, 16},
				Deltas: []float64{0.1, 0.2},
			},
			MaxCells: 3,
		}, "grid expands to 4 cells, exceeding the cap of 3"},
		"bad cell": {SweepRequest{Grid: SweepGrid{
			Graphs: []GraphSpec{{Family: "cycle", N: 8}},
			Deltas: []float64{0.1},
			Ties:   []string{"coin"},
		}}, `cell 0: rule: unknown tie rule "coin"`},
		"k above bound": {SweepRequest{Grid: SweepGrid{
			Graphs: []GraphSpec{{Family: "cycle", N: 8}},
			Deltas: []float64{0.1},
			Ks:     []int{3, spec.MaxK + 1},
		}}, fmt.Sprintf("cell 1: rule: k = %d exceeds the maximum %d", spec.MaxK+1, spec.MaxK)},
	}
	for name, c := range cases {
		var e errorBody
		doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", c.req, http.StatusBadRequest, &e)
		if !strings.Contains(e.Error, c.cause) {
			t.Errorf("%s: error %q, want it to name %q", name, e.Error, c.cause)
		}
	}
	var stats Stats
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, http.StatusOK, &stats)
	if int(stats.SweepsRejected) != len(cases) || stats.SweepsSubmitted != 0 {
		t.Errorf("rejected = %d, submitted = %d, want %d rejected", stats.SweepsRejected, stats.SweepsSubmitted, len(cases))
	}
}

func TestSweepUnknownID(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1})
	doJSON(t, http.MethodGet, ts.URL+"/v1/sweeps/sweep-999999", nil, http.StatusNotFound, nil)
	doJSON(t, http.MethodGet, ts.URL+"/v1/sweeps/sweep-999999/results", nil, http.StatusNotFound, nil)
	doJSON(t, http.MethodDelete, ts.URL+"/v1/sweeps/sweep-999999", nil, http.StatusNotFound, nil)
}

// TestSweepResultsStreaming tails a running sweep over NDJSON and checks
// the stream delivers every cell exactly once and terminates with the
// sweep summary event.
func TestSweepResultsStreaming(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 2})
	req := SweepRequest{
		Grid: SweepGrid{
			Graphs: []GraphSpec{{Family: "complete-virtual"}},
			NS:     []int{64, 96},
			Deltas: []float64{0.1, 0.2},
			Trials: []int{2},
		},
		Seed: 5,
	}
	var accepted SweepView
	doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", req, http.StatusAccepted, &accepted)

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + accepted.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q, want application/x-ndjson", ct)
	}
	seen := map[int]bool{}
	var final *SweepView
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev SweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case ev.Cell != nil:
			if seen[ev.Cell.Index] {
				t.Errorf("cell %d streamed twice", ev.Cell.Index)
			}
			seen[ev.Cell.Index] = true
			if ev.Cell.State != StateDone || ev.Cell.Result == nil {
				t.Errorf("streamed cell %d = %s with result %v, want done", ev.Cell.Index, ev.Cell.State, ev.Cell.Result)
			}
		case ev.Sweep != nil:
			final = ev.Sweep
		default:
			t.Errorf("empty event line %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Errorf("streamed %d cells, want 4", len(seen))
	}
	if final == nil || final.State != StateDone || final.Aggregate.Done != 4 {
		t.Errorf("final sweep event = %+v, want done with 4 cells", final)
	}
}

// TestSweepResultsClientCancellation cuts the client off mid-stream and
// checks the handler unwinds without wedging the server.
func TestSweepResultsClientCancellation(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1, TrialParallelism: 1})
	var accepted SweepView
	doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", slowSweep(2), http.StatusAccepted, &accepted)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/sweeps/"+accepted.ID+"/results", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// The sweep is still running, so the stream must be open with no
	// terminal event yet; cancel the request out from under it.
	cancel()
	resp.Body.Close()

	// The server must stay fully functional: cancel the sweep and drain it.
	var v SweepView
	doJSON(t, http.MethodDelete, ts.URL+"/v1/sweeps/"+accepted.ID, nil, http.StatusOK, &v)
	v = pollSweepDone(t, ts.URL, accepted.ID)
	if v.State != StateCancelled {
		t.Errorf("sweep ended %s after cancel, want cancelled", v.State)
	}
}

// TestSweepCancelMidRun cancels a running sweep and checks the stream
// terminates with a cancelled summary and the cells report a mix of
// terminal states rather than hanging.
func TestSweepCancelMidRun(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1, TrialParallelism: 1})
	var accepted SweepView
	doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", slowSweep(3), http.StatusAccepted, &accepted)

	resp, err := http.Get(ts.URL + "/v1/sweeps/" + accepted.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	var cancelled SweepView
	doJSON(t, http.MethodDelete, ts.URL+"/v1/sweeps/"+accepted.ID, nil, http.StatusOK, &cancelled)

	// The NDJSON stream must terminate on its own with the final event.
	var final *SweepView
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev SweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line: %v", err)
		}
		if ev.Sweep != nil {
			final = ev.Sweep
		}
	}
	if final == nil || final.State != StateCancelled {
		t.Fatalf("stream did not end with a cancelled sweep event: %+v", final)
	}
	agg := final.Aggregate
	if agg.Pending != 0 || agg.Done+agg.Failed+agg.Cancelled != agg.Cells {
		t.Errorf("cancelled sweep left non-terminal cells: %+v", agg)
	}

	var stats Stats
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, http.StatusOK, &stats)
	if stats.SweepsCancelled != 1 {
		t.Errorf("sweeps_cancelled = %d, want 1", stats.SweepsCancelled)
	}
}

// TestSweepCancelFinishesQueuedCells cancels a sweep whose children wait
// in the job queue behind one busy worker: each queued child's terminal
// transition must finish its cell and free its slot, or the scheduler
// never finalises the sweep.
func TestSweepCancelFinishesQueuedCells(t *testing.T) {
	m := NewManager(Config{Workers: 1, TrialParallelism: 1, SweepConcurrency: 3})
	defer m.Close(context.Background())
	req := slowSweep(4)
	req.Grid.Trials = []int{400, 401, 402}
	v, err := m.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, _ := m.GetSweep(v.ID)
		if cur.Cells[0].State == StateRunning && cur.Cells[1].State == StateQueued && cur.Cells[2].State == StateQueued {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cells never reached running/queued/queued: %s %s %s", cur.Cells[0].State, cur.Cells[1].State, cur.Cells[2].State)
		}
		time.Sleep(time.Millisecond)
	}
	m.CancelSweep(v.ID)
	final := waitSweepDone(t, m, v.ID)
	if final.State != StateCancelled || final.Aggregate.Pending != 0 {
		t.Fatalf("sweep = %s with %+v, want cancelled with no pending cells", final.State, final.Aggregate)
	}
	for _, c := range final.Cells[1:] {
		job, _ := m.Get(c.JobID)
		if c.State != StateCancelled || job.State != StateCancelled {
			t.Errorf("queued cell %d: cell %s, job %s; want both cancelled", c.Index, c.State, job.State)
		}
	}
	if st := m.Stats(); st.Queued != 0 || st.Cancelled != 3 {
		t.Errorf("stats queued %d, cancelled %d; want 0 and 3", st.Queued, st.Cancelled)
	}
}

func TestSweepListNewestFirstWithoutCells(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 2})
	small := SweepRequest{
		Grid: SweepGrid{
			Graphs: []GraphSpec{{Family: "complete-virtual", N: 50}},
			Deltas: []float64{0.2},
		},
		Seed: 1,
	}
	var ids []string
	for i := 0; i < 3; i++ {
		var v SweepView
		doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", small, http.StatusAccepted, &v)
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		pollSweepDone(t, ts.URL, id)
	}
	var list []SweepView
	doJSON(t, http.MethodGet, ts.URL+"/v1/sweeps", nil, http.StatusOK, &list)
	if len(list) != 3 {
		t.Fatalf("list has %d entries, want 3", len(list))
	}
	for i, v := range list {
		if want := ids[len(ids)-1-i]; v.ID != want {
			t.Errorf("list[%d] = %s, want %s (newest first)", i, v.ID, want)
		}
		if v.Cells != nil {
			t.Errorf("list[%d] includes %d cells; the list endpoint omits them", i, len(v.Cells))
		}
	}
}

// TestSweepChildrenSurviveRetention pins the pruning exemption: children
// of a still-running sweep are not evicted even when the grid is larger
// than the retention cap, so per-cell job drill-down works for the whole
// sweep.
func TestSweepChildrenSurviveRetention(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1, Retention: 2})
	req := SweepRequest{
		Grid: SweepGrid{
			Graphs: []GraphSpec{{Family: "complete-virtual", N: 64}},
			Deltas: []float64{0.1, 0.15, 0.2, 0.25, 0.3, 0.35},
		},
		Seed:        13,
		Concurrency: 1, // sequential, so early cells finish before late enqueues prune
	}
	var accepted SweepView
	doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", req, http.StatusAccepted, &accepted)
	v := pollSweepDone(t, ts.URL, accepted.ID)
	if v.State != StateDone || v.Aggregate.Done != 6 {
		t.Fatalf("sweep = %s with %+v, want 6 done", v.State, v.Aggregate)
	}
	for _, c := range v.Cells {
		doJSON(t, http.MethodGet, ts.URL+"/v1/runs/"+c.JobID, nil, http.StatusOK, nil)
	}
}

// TestSweepConcurrencyClamp checks per-sweep concurrency never exceeds the
// server default even when the request asks for more.
func TestSweepConcurrencyClamp(t *testing.T) {
	mgr := NewManager(Config{Workers: 2, SweepConcurrency: 2})
	defer mgr.Close(context.Background())
	req := SweepRequest{
		Grid: SweepGrid{
			Graphs: []GraphSpec{{Family: "complete-virtual", N: 64}},
			Deltas: []float64{0.2},
		},
		Seed:        9,
		Concurrency: 64,
	}
	v, err := mgr.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if v.Request.Concurrency != 2 {
		t.Errorf("effective concurrency = %d, want clamped to 2", v.Request.Concurrency)
	}
}
