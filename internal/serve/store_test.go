package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/store"
	"repro/spec"
)

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSubmitServesStoredResult is the memoisation acceptance test:
// resubmitting an identical spec returns the recorded result without
// scheduling a job — jobs_cached increments, the engine counters and
// trial totals do not.
func TestSubmitServesStoredResult(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	m := NewManager(Config{Workers: 2, Store: st})
	defer m.Close(context.Background())

	req := smallRun(77)
	first, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	firstView := waitState(t, m, first.ID)
	if firstView.State != StateDone {
		t.Fatalf("first run: %s (%s)", firstView.State, firstView.Error)
	}
	before := m.Stats()
	if before.JobsCached != 0 {
		t.Fatalf("jobs_cached = %d before any resubmission", before.JobsCached)
	}

	second, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	// The view returned by Submit itself is already terminal: the job
	// never entered the queue.
	if second.State != StateDone || second.Result == nil {
		t.Fatalf("resubmission state = %s, result = %v; want an immediately done job", second.State, second.Result)
	}
	if !second.Result.Cached {
		t.Error("resubmission result not marked cached")
	}
	if second.Result.Seed != 77 || len(second.Result.Reports) != len(firstView.Result.Reports) {
		t.Fatalf("cached result = %+v", second.Result)
	}
	for i := range second.Result.Reports {
		if second.Result.Reports[i] != firstView.Result.Reports[i] {
			t.Fatalf("trial %d differs between executed and cached result", i)
		}
	}
	after := m.Stats()
	if after.JobsCached != 1 {
		t.Errorf("jobs_cached = %d, want 1", after.JobsCached)
	}
	if after.Completed != before.Completed+1 {
		t.Errorf("completed = %d, want %d (cached jobs still complete)", after.Completed, before.Completed+1)
	}
	if after.JobsMeanField != before.JobsMeanField || after.JobsGeneral != before.JobsGeneral {
		t.Errorf("engine counters moved on a cached job: %+v -> %+v", before, after)
	}
	if after.TrialsRun != before.TrialsRun || after.RoundsRun != before.RoundsRun {
		t.Errorf("trial/round counters moved on a cached job")
	}

	// A spec that omits the seed gets a fresh effective seed per job and
	// must never be answered from the store.
	for i := 0; i < 2; i++ {
		v, err := m.Submit(smallRun(0))
		if err != nil {
			t.Fatal(err)
		}
		if v.State == StateDone {
			t.Fatal("seedless submission served from the store")
		}
		waitState(t, m, v.ID)
	}
	if got := m.Stats().JobsCached; got != 1 {
		t.Errorf("jobs_cached = %d after seedless submissions, want still 1", got)
	}
}

// TestStoredResultSurvivesRestart: a result computed by one manager
// generation is a cache hit in the next one, straight from disk.
func TestStoredResultSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	m := NewManager(Config{Workers: 2, Store: st})
	req := smallRun(31)
	v, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	executed := waitState(t, m, v.ID)
	m.Close(context.Background())
	st.Close()

	st2 := openStore(t, dir)
	defer st2.Close()
	m2 := NewManager(Config{Workers: 2, Store: st2})
	defer m2.Close(context.Background())
	hit, err := m2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if hit.State != StateDone || hit.Result == nil || !hit.Result.Cached {
		t.Fatalf("restarted manager did not serve from the store: %+v", hit)
	}
	for i := range hit.Result.Reports {
		if hit.Result.Reports[i] != executed.Result.Reports[i] {
			t.Fatalf("trial %d differs across restart", i)
		}
	}
}

func sweepReqForResume() SweepRequest {
	return SweepRequest{
		Grid: SweepGrid{
			Graphs: []GraphSpec{{Family: "cycle"}},
			NS:     []int{2048, 4096},
			Deltas: []float64{0, 0.05},
			Ks:     []int{3},
			Trials: []int{8},
		},
		MaxRounds:   400,
		Seed:        4242,
		Concurrency: 1,
	}
}

// TestSweepResumesAfterKill is the crash-safety acceptance test: a server
// stopped mid-sweep and restarted over the same store directory completes
// the sweep executing only the unfinished cells, and the terminal sweep
// view's aggregate marshals byte-identical to an uninterrupted run with
// the same seed and grid.
func TestSweepResumesAfterKill(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	m1 := NewManager(Config{Workers: 1, TrialParallelism: 1, Store: st})

	req := sweepReqForResume()
	view, err := m1.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	id := view.ID
	total := view.Aggregate.Cells

	// Let some — not all — cells finish, then kill the server: an
	// already-expired context forces immediate cancellation of whatever
	// is in flight, the moral equivalent of a crash for everything except
	// the store's torn-tail handling (exercised in internal/store).
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, ok := m1.GetSweep(id)
		if !ok {
			t.Fatal("sweep disappeared")
		}
		if v.Aggregate.Done >= 1 {
			break
		}
		if v.State != StateRunning || time.Now().After(deadline) {
			t.Fatalf("sweep state %s, done %d; never reached a partial state", v.State, v.Aggregate.Done)
		}
		time.Sleep(time.Millisecond)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	m1.Close(expired)
	interrupted, _ := m1.GetSweep(id)
	if interrupted.Aggregate.Done == total {
		t.Skip("every cell finished before the kill landed; nothing to resume on this machine")
	}
	doneBeforeKill := interrupted.Aggregate.Done
	st.Close()

	// Generation 2: same store directory, resume.
	st2 := openStore(t, dir)
	defer st2.Close()
	m2 := NewManager(Config{Workers: 1, TrialParallelism: 1, Store: st2})
	defer m2.Close(context.Background())
	resumed, err := m2.ResumeSweeps()
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if resumed != 1 {
		t.Fatalf("resumed %d sweeps, want 1", resumed)
	}
	final := waitSweepDone(t, m2, id)
	if final.State != StateDone || final.Aggregate.Done != total {
		t.Fatalf("resumed sweep: state %s, done %d/%d", final.State, final.Aggregate.Done, total)
	}
	st2Stats := m2.Stats()
	if st2Stats.JobsCached < int64(doneBeforeKill) {
		t.Errorf("resume cached %d cells, want >= the %d finished before the kill", st2Stats.JobsCached, doneBeforeKill)
	}
	if st2Stats.JobsCached >= int64(total) {
		t.Errorf("resume executed nothing (%d cached of %d cells); the kill should have left work", st2Stats.JobsCached, total)
	}

	// Reference: the same request, uninterrupted, over a fresh store.
	st3 := openStore(t, t.TempDir())
	defer st3.Close()
	m3 := NewManager(Config{Workers: 1, TrialParallelism: 1, Store: st3})
	defer m3.Close(context.Background())
	ref, err := m3.SubmitSweep(sweepReqForResume())
	if err != nil {
		t.Fatal(err)
	}
	refFinal := waitSweepDone(t, m3, ref.ID)

	gotAgg, _ := json.Marshal(final.Aggregate)
	wantAgg, _ := json.Marshal(refFinal.Aggregate)
	if !bytes.Equal(gotAgg, wantAgg) {
		t.Errorf("resumed aggregate differs from uninterrupted run:\n got %s\nwant %s", gotAgg, wantAgg)
	}
	if len(final.Cells) != len(refFinal.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(final.Cells), len(refFinal.Cells))
	}
	for i := range final.Cells {
		got, want := final.Cells[i], refFinal.Cells[i]
		gotReq, _ := json.Marshal(got.Request)
		wantReq, _ := json.Marshal(want.Request)
		if got.State != want.State || !bytes.Equal(gotReq, wantReq) {
			t.Errorf("cell %d: state %s vs %s, request %s vs %s", i, got.State, want.State, gotReq, wantReq)
			continue
		}
		// The deterministic slice of the cell results must agree; the
		// timing and provenance fields legitimately differ (a resumed
		// cell is served from the store).
		if got.Result == nil || want.Result == nil {
			t.Errorf("cell %d missing result", i)
			continue
		}
		g, w := *got.Result, *want.Result
		g.CacheHit, g.ElapsedMS = false, 0
		w.CacheHit, w.ElapsedMS = false, 0
		if g != w {
			t.Errorf("cell %d result differs: %+v vs %+v", i, g, w)
		}
	}

	// After the resumed sweep finished, a third generation finds nothing
	// to resume: the journal records it done.
	m2.Close(context.Background())
	st2.Close()
	st4 := openStore(t, dir)
	defer st4.Close()
	m4 := NewManager(Config{Workers: 1, Store: st4})
	defer m4.Close(context.Background())
	if n, err := m4.ResumeSweeps(); err != nil || n != 0 {
		t.Errorf("third generation resumed %d sweeps (err %v), want 0", n, err)
	}
	// The done record has been collapsed into the high-water-mark record,
	// so the journal scan stays O(active sweeps) across generations.
	infos, err := st4.Sweeps()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ID != "hwm" {
		ids := make([]string, len(infos))
		for i, info := range infos {
			ids[i] = info.ID
		}
		t.Errorf("journal after collapse holds %v, want only the hwm record", ids)
	}
	// The collapsed ID stays reserved through the high-water mark.
	v, err := m4.SubmitSweep(sweepReqForResume())
	if err != nil {
		t.Fatal(err)
	}
	if v.ID == id {
		t.Errorf("new sweep reused collapsed ID %s", id)
	}
	waitSweepDone(t, m4, v.ID)
}

func waitSweepDone(t *testing.T, m *Manager, id string) SweepView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := m.GetSweep(id)
		if !ok {
			t.Fatalf("sweep %s disappeared", id)
		}
		if v.State != StateRunning {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("sweep %s did not finish", id)
	return SweepView{}
}

// TestUserCancelledSweepIsNotResumed: a client DELETE is a terminal
// decision; the journal records it and a restart leaves it alone.
func TestUserCancelledSweepIsNotResumed(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	m := NewManager(Config{Workers: 1, TrialParallelism: 1, Store: st})
	req := sweepReqForResume()
	view, err := m.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.CancelSweep(view.ID); !ok {
		t.Fatal("cancel failed")
	}
	final := waitSweepDone(t, m, view.ID)
	if final.State != StateCancelled {
		t.Fatalf("state = %s after cancel", final.State)
	}
	m.Close(context.Background())
	st.Close()

	st2 := openStore(t, dir)
	defer st2.Close()
	m2 := NewManager(Config{Workers: 1, Store: st2})
	defer m2.Close(context.Background())
	if n, err := m2.ResumeSweeps(); err != nil || n != 0 {
		t.Errorf("resumed %d (err %v) after a user cancel, want 0", n, err)
	}
	// The cancelled ID stays reserved: the next sweep gets a fresh one.
	v, err := m2.SubmitSweep(sweepReqForResume())
	if err != nil {
		t.Fatal(err)
	}
	if v.ID == view.ID {
		t.Errorf("new sweep reused journaled ID %s", v.ID)
	}
	waitSweepDone(t, m2, v.ID)
}

// TestRefusedResumeIsTombstoned: a journaled sweep the restarted server
// can no longer admit (tighter limits) is refused ONCE — the refusal
// writes a cancelled tombstone so later restarts do not replay it.
func TestRefusedResumeIsTombstoned(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	m1 := NewManager(Config{Workers: 1, TrialParallelism: 1, Store: st})
	view, err := m1.SubmitSweep(sweepReqForResume()) // 4 cells
	if err != nil {
		t.Fatal(err)
	}
	// Interrupt it so the journal stays "running".
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	m1.Close(expired)
	st.Close()

	// Generation 2 admits at most 2 cells: the resume must be refused
	// and tombstoned, not retried forever.
	tight := DefaultLimits()
	tight.MaxSweepCells = 2
	st2 := openStore(t, dir)
	m2 := NewManager(Config{Workers: 1, Store: st2, Limits: tight})
	n, err := m2.ResumeSweeps()
	if n != 0 || err == nil {
		t.Fatalf("resumed %d, err %v; want a refusal", n, err)
	}
	// The refusal stays queryable: a cancelled, cell-less sweep whose view
	// pins the reason instead of a 404 that swallows recorded history.
	refused, ok := m2.GetSweep(view.ID)
	if !ok {
		t.Fatal("refused sweep not registered")
	}
	if refused.State != StateCancelled || refused.ResumeRefused == "" || len(refused.Cells) != 0 {
		t.Errorf("refused sweep view = state %s, resume_refused %q, %d cells; want cancelled with a reason and no cells",
			refused.State, refused.ResumeRefused, len(refused.Cells))
	}
	m2.Close(context.Background())
	st2.Close()

	// Generation 3 (same tight limits): the tombstone has settled the
	// journal — no error, nothing to resume, and the ID stays reserved.
	st3 := openStore(t, dir)
	defer st3.Close()
	m3 := NewManager(Config{Workers: 1, Store: st3, Limits: tight})
	defer m3.Close(context.Background())
	if n, err := m3.ResumeSweeps(); n != 0 || err != nil {
		t.Errorf("third generation: resumed %d, err %v; want a settled journal", n, err)
	}
	small := SweepRequest{Grid: SweepGrid{Graphs: []GraphSpec{{Family: "cycle"}}, NS: []int{64}, Deltas: []float64{0.1}, Trials: []int{1}}, MaxRounds: 16, Seed: 5}
	v, err := m3.SubmitSweep(small)
	if err != nil {
		t.Fatal(err)
	}
	if v.ID == view.ID {
		t.Errorf("new sweep reused the tombstoned ID %s", v.ID)
	}
	waitSweepDone(t, m3, v.ID)
}

// TestVerifyEveryStoredRecord is the offline-audit acceptance test: every
// record a workload produced re-executes through serve.Execute to the
// byte-identical stored body — the same check `bo3store verify` runs.
func TestVerifyEveryStoredRecord(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	m := NewManager(Config{Workers: 4, Store: st})

	reqs := []RunRequest{
		smallRun(101),
		{Graph: GraphSpec{Family: "random-regular", N: 256, D: 8, Seed: 3}, Delta: 0.1, Trials: 3, Seed: 102},
		{Graph: GraphSpec{Family: "cycle", N: 128}, Delta: 0.2, Trials: 2, MaxRounds: 64, Seed: 103},
		{Graph: GraphSpec{Family: "complete-virtual", N: 300}, Delta: 0.1, Trials: 2, Seed: 104,
			Rule: &RuleSpec{K: 5, Noise: 0.01}},
		{Graph: GraphSpec{Family: "complete-virtual", N: 200}, Delta: 0.2, Trials: 2, Seed: 105, Engine: "general"},
	}
	for _, req := range reqs {
		v, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if v = waitState(t, m, v.ID); v.State != StateDone {
			t.Fatalf("job %s: %s (%s)", v.ID, v.State, v.Error)
		}
	}
	m.Close(context.Background())

	infos := st.Results()
	if len(infos) != len(reqs) {
		t.Fatalf("store holds %d records, want %d", len(infos), len(reqs))
	}
	for _, info := range infos {
		rec, ok, err := st.GetResult(info.Key)
		if !ok || err != nil {
			t.Fatalf("get %s: ok=%v err=%v", info.Key, ok, err)
		}
		var rs spec.RunSpec
		if err := json.Unmarshal(rec.Spec, &rs); err != nil {
			t.Fatalf("stored spec: %v", err)
		}
		if got := rs.ContentKey(); got != info.Key {
			t.Errorf("record key %s does not match its spec's content key %s", info.Key, got)
		}
		res, err := Execute(context.Background(), rs)
		if err != nil {
			t.Fatalf("re-execute %s: %v", info.Key, err)
		}
		fresh, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fresh, rec.Body) {
			t.Errorf("record %s does not verify:\nstored %s\nfresh  %s", info.Key, rec.Body, fresh)
		}
	}
}

// TestVerifyCommittedStoreSegment re-executes every result record of a
// committed store segment written by an earlier bo3serve build and
// byte-compares each fresh result with the stored body. Its records cover
// every variant, per-sample noise, an even k with the random tie,
// sampling without replacement and both engines. TestVerifyEveryStoredRecord
// only replays records the same binary just wrote; this test holds the
// store invariant against bytes an older engine wrote, so an engine change
// that moves a single RNG draw fails here.
func TestVerifyCommittedStoreSegment(t *testing.T) {
	st, err := store.Open(filepath.Join("testdata", "parentstore"), store.Options{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	infos := st.Results()
	if len(infos) != 13 {
		t.Fatalf("fixture holds %d result records, want 13", len(infos))
	}
	seen := map[string]bool{}
	for _, info := range infos {
		rec, ok, err := st.GetResult(info.Key)
		if !ok || err != nil {
			t.Fatalf("get %s: ok=%v err=%v", info.Key, ok, err)
		}
		var rs spec.RunSpec
		if err := json.Unmarshal(rec.Spec, &rs); err != nil {
			t.Fatalf("stored spec: %v", err)
		}
		res, err := Execute(context.Background(), rs)
		if err != nil {
			t.Fatalf("re-execute %s: %v", rec.Spec, err)
		}
		fresh, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(fresh, rec.Body) {
			t.Errorf("record %s does not verify:\nstored %s\nfresh  %s", rec.Spec, rec.Body, fresh)
		}
		seen[res.Engine] = true
		seen[rs.VariantName()] = true
	}
	for _, want := range []string{"general", "mean-field", "sync", "async", "stubborn", "plurality"} {
		if !seen[want] {
			t.Errorf("fixture covers no %s record", want)
		}
	}
}

// TestResumeCommittedJournal replays a store segment an earlier bo3serve
// wrote while it still kept a sweep-level dedupe memory: the completed
// sweep-000001's terminal record carries "content_key", and the
// high-water-mark record that collapsed sweep-000000 carries "done_keys".
// Resume must settle that journal to a high-water mark of next_seq alone,
// mint new sweep IDs past the journaled ones, and answer both completed
// grids from the result store without executing a trial.
func TestResumeCommittedJournal(t *testing.T) {
	dir := t.TempDir()
	seg, err := os.ReadFile(filepath.Join("testdata", "parentjournal", "seg-000001.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-000001.jsonl"), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	st := openStore(t, dir)
	defer st.Close()
	m := NewManager(Config{Workers: 2, TrialParallelism: 1, Store: st})
	defer m.Close(context.Background())
	if n, err := m.ResumeSweeps(); n != 0 || err != nil {
		t.Fatalf("resumed %d (err %v), want a settled journal", n, err)
	}
	infos, err := st.Sweeps()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ID != "hwm" || string(infos[0].Body) != `{"next_seq":2}` {
		t.Errorf("journal after resume = %+v, want only hwm {\"next_seq\":2}", infos)
	}
	grids := []SweepRequest{
		{Grid: SweepGrid{Graphs: []GraphSpec{{Family: "complete-virtual"}}, NS: []int{64, 128}, Deltas: []float64{0.1}, Trials: []int{2}}, Seed: 21},
		{Grid: SweepGrid{Graphs: []GraphSpec{{Family: "cycle", N: 64}}, Deltas: []float64{0.1, 0.2}, Trials: []int{2}}, MaxRounds: 64, Seed: 22},
	}
	for i, req := range grids {
		v, err := m.SubmitSweep(req)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("sweep-%06d", 2+i); v.ID != want {
			t.Errorf("new sweep ID %s, want %s past the journaled ones", v.ID, want)
		}
		final := waitSweepDone(t, m, v.ID)
		if final.State != StateDone || final.CellsCached != final.Aggregate.Cells || final.Aggregate.Cells != 2 {
			t.Errorf("grid %d: state %s, cells_cached %d of %d cells; want done, all 2 cached",
				i, final.State, final.CellsCached, final.Aggregate.Cells)
		}
	}
	if got := m.Stats().TrialsRun; got != 0 {
		t.Errorf("repeated grids executed %d trials, want 0", got)
	}
}

// TestResultsEndpoints covers the /v1/results wire surface.
func TestResultsEndpoints(t *testing.T) {
	st := openStore(t, t.TempDir())
	defer st.Close()
	m := NewManager(Config{Workers: 2, Store: st})
	defer m.Close(context.Background())
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	seeds := []uint64{11, 12, 13}
	for _, seed := range seeds {
		v, err := m.Submit(smallRun(seed))
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, m, v.ID)
	}
	v, err := m.Submit(RunRequest{Graph: GraphSpec{Family: "cycle", N: 64}, Delta: 0.1, Trials: 2, MaxRounds: 32, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, v.ID)

	getJSON := func(path string, out any) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode
	}

	var list ResultList
	if code := getJSON("/v1/results", &list); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	if list.Total != 4 || list.Count != 4 {
		t.Fatalf("list = %+v, want 4 records", list)
	}
	// Newest first: the cycle job was submitted last.
	if list.Results[0].Spec.Graph.Family != "cycle" {
		t.Errorf("listing not newest-first: %+v", list.Results[0].Spec)
	}

	// Family filter and pagination.
	if getJSON("/v1/results?family=complete-virtual", &list); list.Total != 3 {
		t.Errorf("family filter: total = %d, want 3", list.Total)
	}
	if getJSON("/v1/results?family=complete-virtual&limit=2&offset=2", &list); list.Total != 3 || list.Count != 1 {
		t.Errorf("pagination: %+v, want total 3, count 1", list)
	}
	if getJSON("/v1/results?family=torus", &list); list.Total != 0 {
		t.Errorf("non-matching family filter returned %d", list.Total)
	}
	if getJSON("/v1/results?n=64", &list); list.Total != 1 {
		t.Errorf("n filter: total = %d, want 1", list.Total)
	}

	// Pagination edges: an offset past the end still reports the full
	// total with an empty window; limit=0 means "default", not "nothing";
	// offsets count matches, not records, when a filter is active.
	if getJSON("/v1/results?offset=10", &list); list.Total != 4 || list.Count != 0 || len(list.Results) != 0 {
		t.Errorf("offset past end: %+v, want total 4, count 0", list)
	}
	if getJSON("/v1/results?limit=0", &list); list.Total != 4 || list.Count != 4 {
		t.Errorf("limit=0: %+v, want the default window (all 4)", list)
	}
	if getJSON("/v1/results?family=complete-virtual&offset=3", &list); list.Total != 3 || list.Count != 0 {
		t.Errorf("filter+offset past end: %+v, want total 3, count 0", list)
	}
	if getJSON("/v1/results?family=complete-virtual&offset=2&limit=0", &list); list.Total != 3 || list.Count != 1 {
		t.Errorf("filter+offset+default limit: %+v, want total 3, count 1", list)
	}
	if getJSON("/v1/results?offset=3&limit=5", &list); list.Total != 4 || list.Count != 1 {
		t.Errorf("window over the tail: %+v, want total 4, count 1", list)
	}

	// Point lookup round-trips the stored spec and result; posting the
	// spec back is a cache hit.
	key := contentKey(canonicalSpec(smallRun(11), 11), 11)
	var view ResultView
	if code := getJSON("/v1/results/"+key, &view); code != http.StatusOK {
		t.Fatalf("get status %d", code)
	}
	if view.Key != key || view.Spec.Seed != 11 || view.Result.Trials != 4 {
		t.Fatalf("result view = %+v", view)
	}
	if view.Result.ElapsedMS != 0 || view.Result.CacheHit {
		t.Errorf("stored result is not the deterministic projection: %+v", view.Result)
	}
	body, _ := json.Marshal(view.Spec)
	resp, err := http.Post(srv.URL+"/v1/runs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var job JobView
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if job.State != StateDone || job.Result == nil || !job.Result.Cached {
		t.Errorf("replaying a stored spec did not hit the store: %+v", job)
	}

	var errBody map[string]any
	if code := getJSON("/v1/results/deadbeef", &errBody); code != http.StatusNotFound {
		t.Errorf("unknown key status %d, want 404", code)
	}
	resp, err = http.Get(srv.URL + "/v1/results?limit=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit status %d, want 400", resp.StatusCode)
	}

	// Stats expose the store.
	var stats Stats
	getJSON("/v1/stats", &stats)
	if stats.ResultStore == nil || stats.ResultStore.Results != 4 {
		t.Errorf("stats.result_store = %+v, want 4 results", stats.ResultStore)
	}
	if stats.JobsCached != 1 {
		t.Errorf("jobs_cached = %d, want 1", stats.JobsCached)
	}
}

// TestResultsEndpointsWithoutStore: the endpoints keep their shape on a
// storeless server.
func TestResultsEndpointsWithoutStore(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close(context.Background())
	srv := httptest.NewServer(NewServer(m))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/results")
	if err != nil {
		t.Fatal(err)
	}
	var list ResultList
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || list.Total != 0 {
		t.Errorf("storeless list: status %d, err %v, %+v", resp.StatusCode, err, list)
	}
	resp, err = http.Get(srv.URL + "/v1/results/" + fmt.Sprintf("%064d", 0))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("storeless get: status %d, want 404", resp.StatusCode)
	}
}
