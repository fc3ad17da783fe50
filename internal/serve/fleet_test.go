package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

// The fleet tests run several Managers over one shared store directory —
// the in-process equivalent of N bo3serve processes with -worker-id —
// and pin the coordination contract: exactly-once cell execution under
// contention, lease takeover after a kill, and repeated grids answered
// from the result store.

func openShared(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Shared: true})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func fleetConfig(st *store.Store, worker string) Config {
	return Config{
		Workers:          2,
		TrialParallelism: 1,
		Store:            st,
		WorkerID:         worker,
		LeaseTTL:         time.Minute,
		LeasePoll:        time.Millisecond,
	}
}

// TestFleetSharedSweepExactlyOnce is the contention acceptance test: two
// workers race the identical grid (same seed, so identical cell content
// keys) over one store directory. The claim protocol must partition the
// cells — the sum of executed trials across the fleet is exactly the
// grid's trial count — and both sweeps must converge to byte-identical
// aggregates.
func TestFleetSharedSweepExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	stA := openShared(t, dir)
	defer stA.Close()
	stB := openShared(t, dir)
	defer stB.Close()
	mA := NewManager(fleetConfig(stA, "a"))
	defer mA.Close(context.Background())
	mB := NewManager(fleetConfig(stB, "b"))
	defer mB.Close(context.Background())

	req := sweepReqForResume()
	vA, err := mA.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	vB, err := mB.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(vA.ID, "sweep-a-") || !strings.HasPrefix(vB.ID, "sweep-b-") {
		t.Fatalf("sweep IDs not worker-namespaced: %q, %q", vA.ID, vB.ID)
	}
	finalA := waitSweepDone(t, mA, vA.ID)
	finalB := waitSweepDone(t, mB, vB.ID)
	if finalA.State != StateDone || finalB.State != StateDone {
		t.Fatalf("states: %s, %s", finalA.State, finalB.State)
	}

	// Identical content keys, identical aggregates — however the cells
	// were partitioned.
	if finalA.ContentKey == "" || finalA.ContentKey != finalB.ContentKey {
		t.Errorf("content keys: %q vs %q", finalA.ContentKey, finalB.ContentKey)
	}
	aggA, _ := json.Marshal(finalA.Aggregate)
	aggB, _ := json.Marshal(finalB.Aggregate)
	if !bytes.Equal(aggA, aggB) {
		t.Errorf("fleet aggregates differ:\n a %s\n b %s", aggA, aggB)
	}

	// Exactly-once: every cell executed on exactly one worker, so the
	// fleet-wide executed trial count is the grid's total, and each cell
	// was served cached on exactly the worker that lost the race.
	cells := finalA.Aggregate.Cells
	wantTrials := int64(finalA.Aggregate.Trials)
	sA, sB := mA.Stats(), mB.Stats()
	if got := sA.TrialsRun + sB.TrialsRun; got != wantTrials {
		t.Errorf("fleet executed %d trials (a %d + b %d), want exactly %d",
			got, sA.TrialsRun, sB.TrialsRun, wantTrials)
	}
	if got := sA.CellsCached + sB.CellsCached; got != int64(cells) {
		t.Errorf("fleet cached %d cells (a %d + b %d), want exactly %d",
			got, sA.CellsCached, sB.CellsCached, cells)
	}
	if sA.WorkerID != "a" || sB.WorkerID != "b" {
		t.Errorf("stats worker IDs: %q, %q", sA.WorkerID, sB.WorkerID)
	}
	// One result record per cell, fleet-wide: first write won, the loser's
	// bytes were never appended.
	if got := len(stA.Results()); got != cells {
		t.Errorf("store holds %d results, want %d", got, cells)
	}

	// Reference: the same request on a solo server, fresh store.
	stRef := openStore(t, t.TempDir())
	defer stRef.Close()
	mRef := NewManager(Config{Workers: 2, TrialParallelism: 1, Store: stRef})
	defer mRef.Close(context.Background())
	ref, err := mRef.SubmitSweep(sweepReqForResume())
	if err != nil {
		t.Fatal(err)
	}
	refFinal := waitSweepDone(t, mRef, ref.ID)
	wantAgg, _ := json.Marshal(refFinal.Aggregate)
	if !bytes.Equal(aggA, wantAgg) {
		t.Errorf("fleet aggregate differs from solo run:\n got %s\nwant %s", aggA, wantAgg)
	}
}

// TestFleetLeaseTakeoverAfterKill: worker a dies mid-sweep holding cell
// leases; worker b resumes the journaled sweep under its original ID,
// serves a's finished cells from the store, waits out a's leases (TTL,
// never renewed by the dead worker), takes them over, and finishes — to
// the same aggregate as an uninterrupted run.
func TestFleetLeaseTakeoverAfterKill(t *testing.T) {
	dir := t.TempDir()
	stA := openShared(t, dir)
	cfgA := fleetConfig(stA, "a")
	cfgA.Workers = 1
	cfgA.LeaseTTL = 100 * time.Millisecond
	mA := NewManager(cfgA)

	req := sweepReqForResume()
	view, err := mA.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	id := view.ID
	total := view.Aggregate.Cells
	deadline := time.Now().Add(30 * time.Second)
	for {
		v, ok := mA.GetSweep(id)
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
	mA.Close(expired)
	interrupted, _ := mA.GetSweep(id)
	if interrupted.Aggregate.Done == total {
		t.Skip("every cell finished before the kill landed; nothing to take over on this machine")
	}
	// The kill path must not release: fleet-wide, shutdown is
	// indistinguishable from a crash, and only expiry may free the lease.
	for _, c := range stA.Claims() {
		if c.Worker != "a" {
			t.Errorf("claim %s held by %q, want only worker a before takeover", c.Key, c.Worker)
		}
	}
	stA.Close()

	stB := openShared(t, dir)
	defer stB.Close()
	cfgB := fleetConfig(stB, "b")
	cfgB.Workers = 1
	cfgB.LeaseTTL = 100 * time.Millisecond
	mB := NewManager(cfgB)
	defer mB.Close(context.Background())
	resumed, err := mB.ResumeSweeps()
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if resumed != 1 {
		t.Fatalf("resumed %d sweeps, want 1", resumed)
	}
	final := waitSweepDone(t, mB, id)
	if final.State != StateDone || final.Aggregate.Done != total {
		t.Fatalf("taken-over sweep: state %s, done %d/%d", final.State, final.Aggregate.Done, total)
	}

	stRef := openStore(t, t.TempDir())
	defer stRef.Close()
	mRef := NewManager(Config{Workers: 1, TrialParallelism: 1, Store: stRef})
	defer mRef.Close(context.Background())
	ref, err := mRef.SubmitSweep(sweepReqForResume())
	if err != nil {
		t.Fatal(err)
	}
	refFinal := waitSweepDone(t, mRef, ref.ID)
	gotAgg, _ := json.Marshal(final.Aggregate)
	wantAgg, _ := json.Marshal(refFinal.Aggregate)
	if !bytes.Equal(gotAgg, wantAgg) {
		t.Errorf("taken-over aggregate differs from uninterrupted run:\n got %s\nwant %s", gotAgg, wantAgg)
	}
}

// TestRepeatedSweepServedFromStore: resubmitting a completed grid (same
// seed and round cap) is answered cell by cell from the result store —
// every cell is cached and nothing executes — before and after a restart.
// The restart also collapses the terminal journal records into the
// high-water-mark record.
func TestRepeatedSweepServedFromStore(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, dir)
	m := NewManager(Config{Workers: 2, TrialParallelism: 1, Store: st})
	req := sweepReqForResume()
	first, err := m.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	firstFinal := waitSweepDone(t, m, first.ID)
	if firstFinal.State != StateDone {
		t.Fatalf("first sweep: %s", firstFinal.State)
	}
	cells := firstFinal.Aggregate.Cells
	base := m.Stats()

	second, err := m.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	secondFinal := waitSweepDone(t, m, second.ID)
	if secondFinal.State != StateDone {
		t.Fatalf("repeated sweep: state %s", secondFinal.State)
	}
	if secondFinal.CellsCached != cells {
		t.Errorf("cells_cached = %d, want every one of %d", secondFinal.CellsCached, cells)
	}
	if secondFinal.ContentKey == "" || secondFinal.ContentKey != firstFinal.ContentKey {
		t.Errorf("content keys: %q vs %q", secondFinal.ContentKey, firstFinal.ContentKey)
	}
	aggFirst, _ := json.Marshal(firstFinal.Aggregate)
	aggSecond, _ := json.Marshal(secondFinal.Aggregate)
	if !bytes.Equal(aggFirst, aggSecond) {
		t.Errorf("repeated aggregate differs:\n got %s\nwant %s", aggSecond, aggFirst)
	}
	after := m.Stats()
	if after.TrialsRun != base.TrialsRun || after.RoundsRun != base.RoundsRun {
		t.Errorf("repeated sweep executed trials: %d -> %d", base.TrialsRun, after.TrialsRun)
	}
	if after.JobsCached != base.JobsCached+int64(cells) {
		t.Errorf("jobs_cached = %d, want %d", after.JobsCached, base.JobsCached+int64(cells))
	}
	if after.CellsCached != int64(cells) {
		t.Errorf("stats cells_cached = %d, want %d", after.CellsCached, cells)
	}
	m.Close(context.Background())
	st.Close()

	// Generation 2: ResumeSweeps folds both terminal records into the
	// high-water mark — the journal scan stays O(active sweeps) — and the
	// resubmission is again answered from the store.
	st2 := openStore(t, dir)
	defer st2.Close()
	m2 := NewManager(Config{Workers: 2, TrialParallelism: 1, Store: st2})
	defer m2.Close(context.Background())
	if n, err := m2.ResumeSweeps(); n != 0 || err != nil {
		t.Fatalf("resumed %d (err %v), want a settled journal", n, err)
	}
	infos, err := st2.Sweeps()
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
	third, err := m2.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if third.ID == first.ID || third.ID == second.ID {
		t.Errorf("sweep ID %s reused a collapsed record's", third.ID)
	}
	thirdFinal := waitSweepDone(t, m2, third.ID)
	if thirdFinal.CellsCached != cells {
		t.Errorf("after restart: cells_cached = %d, want %d", thirdFinal.CellsCached, cells)
	}
	aggThird, _ := json.Marshal(thirdFinal.Aggregate)
	if !bytes.Equal(aggFirst, aggThird) {
		t.Errorf("post-restart aggregate differs:\n got %s\nwant %s", aggThird, aggFirst)
	}
	if got := m2.Stats().TrialsRun; got != 0 {
		t.Errorf("post-restart repeated sweep executed %d trials", got)
	}
}

func TestValidateWorkerID(t *testing.T) {
	for _, c := range []struct {
		id string
		ok bool
	}{
		{"", true},
		{"a", true},
		{"worker-07", true},
		{"Rack.2_b", true},
		{"w%1", false},
		{"a/b", false},
		{"a b", false},
		{"w:1", false},
		{"wé", false},
	} {
		if err := ValidateWorkerID(c.id); (err == nil) != c.ok {
			t.Errorf("ValidateWorkerID(%q) = %v, want ok %v", c.id, err, c.ok)
		}
	}
}

// TestRestartReservesOwnSweepIDs: a fleet worker restarted over its own
// store parses its journaled sweep IDs as a literal prefix plus digits —
// never as a format string built from its ID — so it collapses its
// terminal records and mints past them whatever its ID holds. (bo3serve
// refuses such an ID; the Manager API takes any.)
func TestRestartReservesOwnSweepIDs(t *testing.T) {
	dir := t.TempDir()
	small := SweepRequest{Grid: SweepGrid{Graphs: []GraphSpec{{Family: "complete-virtual", N: 64}}, Deltas: []float64{0.2}}, Seed: 3}
	st := openShared(t, dir)
	m := NewManager(fleetConfig(st, "w%1"))
	first, err := m.SubmitSweep(small)
	if err != nil {
		t.Fatal(err)
	}
	if first.ID != "sweep-w%1-000000" {
		t.Fatalf("first sweep ID %q", first.ID)
	}
	waitSweepDone(t, m, first.ID)
	m.Close(context.Background())
	st.Close()

	st2 := openShared(t, dir)
	defer st2.Close()
	m2 := NewManager(fleetConfig(st2, "w%1"))
	defer m2.Close(context.Background())
	if n, err := m2.ResumeSweeps(); n != 0 || err != nil {
		t.Fatalf("resumed %d (err %v), want a settled journal", n, err)
	}
	infos, err := st2.Sweeps()
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].ID != "hwm-w%1" {
		ids := make([]string, len(infos))
		for i, info := range infos {
			ids[i] = info.ID
		}
		t.Errorf("journal after collapse holds %v, want only hwm-w%%1", ids)
	}
	second, err := m2.SubmitSweep(small)
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != "sweep-w%1-000001" {
		t.Errorf("sweep ID after restart = %q, want sweep-w%%1-000001", second.ID)
	}
	waitSweepDone(t, m2, second.ID)
}
