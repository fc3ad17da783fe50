package main

import (
	"testing"

	"repro/internal/cli"
	"repro/internal/experiments"
)

// TestReplayGridCarriesRoundCap: a registry row's round cap travels with
// its grid, so `-serve … -grid E9` does not cut the voter model off at the
// theory-derived default cap.
func TestReplayGridCarriesRoundCap(t *testing.T) {
	cfg := experiments.Quick()
	want := experiments.Grids(cfg)["E9"].MaxRounds
	if want == 0 {
		t.Fatal("E9 registry row has no round cap")
	}
	req, err := replayGrid(&cli.GraphFlags{}, cfg, "e9", "", true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if req.MaxRounds != want {
		t.Errorf("E9 request max_rounds = %d, want the registry cap %d", req.MaxRounds, want)
	}
	// The load-test grid has no registry cap.
	gf := &cli.GraphFlags{Family: "cycle", N: 1024}
	if req, err := replayGrid(gf, cfg, "", "", true, 0); err != nil || req.MaxRounds != 0 {
		t.Errorf("load-test request max_rounds = %d, err %v", req.MaxRounds, err)
	}
}
