package experiments

import (
	"context"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/spec"
)

// TestGridsAreServable: every registry grid validates, stays under the
// server's default sweep cap, and expands (with its round cap) into cells
// that pass the same admission limits bo3serve applies — so
// `bo3sweep -serve -grid <id>` can never submit a grid the server rejects.
func TestGridsAreServable(t *testing.T) {
	limits := spec.Limits{MaxN: 1 << 22, MaxEdges: 1 << 27, MaxTrials: 4096, MaxRounds: 1 << 20}
	const maxSweepCells = 4096
	for _, cfg := range []Config{Quick(), Default()} {
		for id, row := range Grids(cfg) {
			grid := row.Grid
			grid.Normalize()
			if err := grid.Validate(); err != nil {
				t.Errorf("%s: grid invalid: %v", id, err)
				continue
			}
			count, err := grid.CellCount()
			if err != nil || count == 0 || count > maxSweepCells {
				t.Errorf("%s: cell count %d, err %v", id, count, err)
				continue
			}
			cells := grid.Expand(cfg.Seed, row.MaxRounds)
			if len(cells) != count {
				t.Errorf("%s: expanded %d cells, count says %d", id, len(cells), count)
			}
			for i := range cells {
				if err := cells[i].ValidateLimits(limits); err != nil {
					t.Errorf("%s: cell %d: %v", id, i, err)
					break
				}
			}
		}
	}
	if ids := GridIDs(Quick()); len(ids) == 0 {
		t.Error("no sweepable grids registered")
	}
}

// TestGridsMatchServerSweeps pins one definition per experiment: for every
// sweepable row, the library path the suite's tables are computed from and
// an in-process bo3serve sweep of the same registry grid, seed and round
// cap agree cell for cell.
func TestGridsMatchServerSweeps(t *testing.T) {
	cfg := Config{Trials: 3, MaxN: 1 << 10, Seed: 5}
	m := serve.NewManager(serve.Config{Workers: 2})
	defer m.Close(context.Background())
	for _, id := range GridIDs(cfg) {
		row := Grids(cfg)[id]
		lib := runSweep(cfg, id)
		view, err := m.SubmitSweep(serve.SweepRequest{Grid: row.Grid, MaxRounds: row.MaxRounds, Seed: cfg.Seed})
		if err != nil {
			t.Fatalf("%s: submit: %v", id, err)
		}
		view = waitSweep(t, m, view.ID)
		if view.State != serve.StateDone || len(view.Cells) != len(lib) {
			t.Fatalf("%s: sweep %s with %d cells, library ran %d", id, view.State, len(view.Cells), len(lib))
		}
		for i, cell := range view.Cells {
			got, want := cell.Result, lib[i]
			if got == nil {
				t.Errorf("%s cell %d: %s: %s", id, i, cell.State, cell.Error)
				continue
			}
			if got.RedWins != want.RedWins || got.Consensus != want.ConsensusCount ||
				got.MeanRounds != want.MeanRounds || got.MaxRounds != want.MaxRounds {
				t.Errorf("%s cell %d (%s): server red %d consensus %d mean %v max %d, library red %d consensus %d mean %v max %d",
					id, i, want.GraphName, got.RedWins, got.Consensus, got.MeanRounds, got.MaxRounds,
					want.RedWins, want.ConsensusCount, want.MeanRounds, want.MaxRounds)
			}
		}
	}
}

// waitSweep blocks until sweep id is terminal: it drains the sweep's
// results subscription until the topic closes, then returns the view.
func waitSweep(t *testing.T, m *serve.Manager, id string) serve.SweepView {
	t.Helper()
	if _, sub, ok := m.SubscribeSweepResults(id); ok {
		defer sub.Cancel()
		deadline := time.After(5 * time.Minute)
		for !sub.Done() {
			if _, ok := sub.Next(); ok {
				continue
			}
			select {
			case <-sub.Ready():
			case <-deadline:
				t.Fatalf("sweep %s did not finish", id)
			}
		}
	}
	view, ok := m.GetSweep(id)
	if !ok {
		t.Fatalf("sweep %s disappeared", id)
	}
	return view
}

// TestLoadTestGrid: n-parameterised templates cross the size axis;
// fixed-size families drop it.
func TestLoadTestGrid(t *testing.T) {
	rr := LoadTestGrid(spec.GraphSpec{Family: "random-regular", D: 32, Seed: 1}, true, 8)
	if len(rr.NS) == 0 || len(rr.Deltas) == 0 || rr.Trials[0] != 8 {
		t.Errorf("load-test grid malformed: %+v", rr)
	}
	sbm := LoadTestGrid(spec.GraphSpec{Family: "sbm", A: 256, B: 256, PIn: 0.1, POut: 0.02, Seed: 1}, true, 4)
	if len(sbm.NS) != 0 {
		t.Errorf("sbm template kept the NS axis: %+v", sbm)
	}
	if err := sbm.Validate(); err != nil {
		t.Errorf("sbm load-test grid invalid: %v", err)
	}
}
