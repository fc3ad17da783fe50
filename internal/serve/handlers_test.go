package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Manager) {
	t.Helper()
	mgr := NewManager(cfg)
	ts := httptest.NewServer(NewServer(mgr))
	t.Cleanup(func() {
		ts.Close()
		mgr.Close(context.Background())
	})
	return ts, mgr
}

func doJSON(t *testing.T, method, url string, body any, wantStatus int, out any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e errorBody
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("%s %s = %s (%s), want %d", method, url, resp.Status, e.Error, wantStatus)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

func pollDone(t *testing.T, base, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var v JobView
	for time.Now().Before(deadline) {
		doJSON(t, http.MethodGet, base+"/v1/runs/"+id, nil, http.StatusOK, &v)
		switch v.State {
		case StateDone, StateFailed, StateCancelled:
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish over HTTP", id)
	return v
}

// TestEndToEndWithCacheHit is the acceptance-criterion flow: submit a
// Best-of-Three run over HTTP, poll it to completion with RedWon/Rounds
// populated, then observe a graph-cache hit on a second identical
// submission.
func TestEndToEndWithCacheHit(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 2})

	req := RunRequest{
		Graph:  GraphSpec{Family: "random-regular", N: 1024, D: 32, Seed: 4},
		Delta:  0.1,
		Trials: 3,
		Seed:   21,
	}
	var accepted JobView
	doJSON(t, http.MethodPost, ts.URL+"/v1/runs", req, http.StatusAccepted, &accepted)
	if accepted.ID == "" || accepted.State != StateQueued {
		t.Fatalf("accepted = %+v", accepted)
	}

	first := pollDone(t, ts.URL, accepted.ID)
	if first.State != StateDone || first.Result == nil {
		t.Fatalf("first job: state = %s, error = %q", first.State, first.Error)
	}
	r := first.Result
	if r.CacheHit {
		t.Error("first submission reported a cache hit on a cold pool")
	}
	if len(r.Reports) != 3 {
		t.Fatalf("reports = %d, want 3", len(r.Reports))
	}
	for i, rep := range r.Reports {
		if rep.Rounds <= 0 {
			t.Errorf("trial %d: rounds = %d, want > 0", i, rep.Rounds)
		}
	}
	// δ = 0.1 on a d = 32 regular graph: red wins, fast.
	if r.RedWins != 3 || r.Consensus != 3 {
		t.Errorf("red_wins = %d, consensus = %d, want 3 each", r.RedWins, r.Consensus)
	}
	if r.PredictedRounds <= 0 || !strings.Contains(r.Precondition, "n=1024") {
		t.Errorf("theory fields missing: %+v", r)
	}

	var second JobView
	doJSON(t, http.MethodPost, ts.URL+"/v1/runs", req, http.StatusAccepted, &second)
	done := pollDone(t, ts.URL, second.ID)
	if done.State != StateDone || done.Result == nil || !done.Result.CacheHit {
		t.Fatalf("second identical submission did not hit the graph pool: %+v", done.Result)
	}
	// Identical request (same seed) must reproduce identical outcomes.
	for i := range r.Reports {
		if r.Reports[i] != done.Result.Reports[i] {
			t.Errorf("trial %d not reproducible over HTTP: %+v vs %+v", i, r.Reports[i], done.Result.Reports[i])
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1})
	cases := map[string]any{
		"malformed json": "{not json",
		"unknown field":  map[string]any{"graph": map[string]any{"family": "cycle", "n": 10}, "delta": 0.1, "bogus": 1},
		"bad delta":      RunRequest{Graph: GraphSpec{Family: "cycle", N: 10}, Delta: 0.9},
		"unknown family": RunRequest{Graph: GraphSpec{Family: "kite", N: 10}, Delta: 0.1},
		"oversized n":    RunRequest{Graph: GraphSpec{Family: "cycle", N: 1 << 30}, Delta: 0.1},
		"bad tie rule":   RunRequest{Graph: GraphSpec{Family: "cycle", N: 10}, Delta: 0.1, Rule: &RuleSpec{K: 2, Tie: "coin"}},
		// One round would draw n·2^40 samples, holding a worker past any
		// cancellation (which is checked only between rounds).
		"k above bound": `{"graph":{"family":"random-regular","n":1024,"d":32,"seed":1},"delta":0.1,"rule":{"k":1099511627776}}`,
	}
	for name, body := range cases {
		var buf bytes.Buffer
		if s, ok := body.(string); ok {
			buf.WriteString(s)
		} else if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", &buf)
		if err != nil {
			t.Fatal(err)
		}
		var e errorBody
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
		if e.Error == "" {
			t.Errorf("%s: empty error body", name)
		}
	}
}

func TestGetUnknownRun(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1})
	doJSON(t, http.MethodGet, ts.URL+"/v1/runs/run-999999", nil, http.StatusNotFound, nil)
	doJSON(t, http.MethodDelete, ts.URL+"/v1/runs/run-999999", nil, http.StatusNotFound, nil)
}

func TestListRunsNewestFirst(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		var v JobView
		doJSON(t, http.MethodPost, ts.URL+"/v1/runs", RunRequest{
			Graph: GraphSpec{Family: "complete-virtual", N: 50 + i}, Delta: 0.2, Seed: uint64(i + 1),
		}, http.StatusAccepted, &v)
		ids = append(ids, v.ID)
	}
	for _, id := range ids {
		pollDone(t, ts.URL, id)
	}
	var list []JobView
	doJSON(t, http.MethodGet, ts.URL+"/v1/runs", nil, http.StatusOK, &list)
	if len(list) != 3 {
		t.Fatalf("list has %d entries, want 3", len(list))
	}
	for i, v := range list {
		if want := ids[len(ids)-1-i]; v.ID != want {
			t.Errorf("list[%d] = %s, want %s (newest first)", i, v.ID, want)
		}
	}
}

func TestStatsAndHealth(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 2})
	var health map[string]string
	doJSON(t, http.MethodGet, ts.URL+"/healthz", nil, http.StatusOK, &health)
	if health["status"] != "ok" {
		t.Errorf("health = %v", health)
	}

	req := RunRequest{Graph: GraphSpec{Family: "complete-virtual", N: 100}, Delta: 0.2, Trials: 2, Seed: 9}
	var v JobView
	doJSON(t, http.MethodPost, ts.URL+"/v1/runs", req, http.StatusAccepted, &v)
	pollDone(t, ts.URL, v.ID)
	doJSON(t, http.MethodPost, ts.URL+"/v1/runs", req, http.StatusAccepted, &v)
	pollDone(t, ts.URL, v.ID)

	var s Stats
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, http.StatusOK, &s)
	if s.Submitted != 2 || s.Completed != 2 {
		t.Errorf("stats = %+v, want 2 submitted and completed", s)
	}
	if s.TrialsRun != 4 {
		t.Errorf("trials_run = %d, want 4", s.TrialsRun)
	}
	if s.Cache.Hits < 1 {
		t.Errorf("cache hits = %d, want >= 1 after a repeat", s.Cache.Hits)
	}
	if s.Workers != 2 || s.UptimeSeconds <= 0 {
		t.Errorf("stats plumbing: %+v", s)
	}
}

func TestCancelOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1, TrialParallelism: 1})
	// One slow job to occupy the worker, one queued victim.
	var blocker, victim JobView
	slow := RunRequest{Graph: GraphSpec{Family: "cycle", N: 4096}, Delta: 0, Trials: 500, MaxRounds: 100, Seed: 1}
	doJSON(t, http.MethodPost, ts.URL+"/v1/runs", slow, http.StatusAccepted, &blocker)
	doJSON(t, http.MethodPost, ts.URL+"/v1/runs", smallRun(5), http.StatusAccepted, &victim)

	var got JobView
	doJSON(t, http.MethodDelete, ts.URL+"/v1/runs/"+victim.ID, nil, http.StatusOK, &got)
	doJSON(t, http.MethodDelete, ts.URL+"/v1/runs/"+blocker.ID, nil, http.StatusOK, nil)
	b := pollDone(t, ts.URL, blocker.ID)
	vf := pollDone(t, ts.URL, victim.ID)
	if got.State == StateCancelled && vf.State != StateCancelled {
		t.Errorf("victim: cancel reported %s but final state is %s", got.State, vf.State)
	}
	if b.State == StateFailed {
		t.Errorf("blocker failed: %s", b.Error)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _ := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/nope = %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/runs", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT /v1/runs = %d, want 405", resp.StatusCode)
	}
}

// Example-style smoke check that IDs are stable and sequential, which the
// load-test client in cmd/bo3sweep relies on for readable output.
func TestSequentialIDs(t *testing.T) {
	_, mgr := newTestServer(t, Config{Workers: 1})
	a, err := mgr.Submit(smallRun(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := mgr.Submit(smallRun(2))
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != "run-000000" || b.ID != "run-000001" {
		t.Errorf("ids = %s, %s", a.ID, b.ID)
	}
	_ = fmt.Sprintf("%s %s", a.ID, b.ID)
}
