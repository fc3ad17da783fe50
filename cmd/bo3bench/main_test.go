package main

import (
	"strings"
	"testing"
)

// TestScenarioNamesStable pins the registry shape: names are the keys of
// BENCH_engine.json across PRs and the rows of the docs/PERFORMANCE.md
// table CI checks, so renames must be deliberate.
func TestScenarioNamesStable(t *testing.T) {
	want := []string{
		"round/kn-meanfield",
		"round/kn-general",
		"round/regular",
		"round/regular-noise",
		"round/regular-async",
		"trials/kn",
		"trials/regular",
		"graph/artifact-load",
		"serve/jobs",
		"serve/cached-jobs",
		"sweep/variant-sweep",
		"serve/events-fanout",
		"serve/metrics-overhead",
	}
	if len(scenarios) != len(want) {
		t.Fatalf("registered %d scenarios, want %d", len(scenarios), len(want))
	}
	for i, sc := range scenarios {
		if sc.name != want[i] {
			t.Errorf("scenario %d = %q, want %q", i, sc.name, want[i])
		}
		if sc.description == "" || sc.run == nil {
			t.Errorf("scenario %q missing description or runner", sc.name)
		}
	}
}

// TestScenariosRunAtQuickScale executes every scenario at reduced scale
// and sanity-checks the emitted metrics. This keeps the harness itself
// under test: a scenario that errors or reports a zero/negative rate
// fails CI before it poisons a committed baseline.
func TestScenariosRunAtQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("bench harness smoke is not -short")
	}
	scale := Scale{KnN: 1 << 12, Seed: 3, Quick: true}
	for _, sc := range scenarios {
		params, metrics, err := sc.run(scale)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if len(params) == 0 || len(metrics) == 0 {
			t.Fatalf("%s: empty params or metrics", sc.name)
		}
		for k, v := range metrics {
			// mean_* can be zero by definition; events_dropped is a
			// legitimate zero when every watcher kept up.
			if v <= 0 && !strings.HasPrefix(k, "mean_") && k != "events_dropped" {
				t.Errorf("%s: metric %s = %v, want positive", sc.name, k, v)
			}
		}
	}
}

// TestSummarySpeedup checks the headline ratio derivation.
func TestSummarySpeedup(t *testing.T) {
	res := []scenarioResult{
		{Name: "round/kn-meanfield", Metrics: map[string]float64{"ns_per_round": 500}},
		{Name: "round/kn-general", Metrics: map[string]float64{"ns_per_round": 50_000}},
	}
	sum := summarize(res)
	if got := sum["kn_meanfield_speedup_vs_general"]; got != 100 {
		t.Errorf("speedup = %v, want 100", got)
	}
	if len(summarize(res[:1])) != 0 {
		t.Error("summary produced without both scenarios")
	}
}
