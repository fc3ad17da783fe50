package core_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/spec"
)

// -update regenerates testdata/trajectories.golden from the current
// engine. Run it only for a deliberate RNG stream change, which must also
// change the store's run keys, or stored results stop matching the engine;
// the point of the fixture is to make accidental trajectory drift fail
// loudly.
var update = flag.Bool("update", false, "rewrite the golden trajectory fixture")

const goldenFile = "trajectories.golden"

// Golden grid: every axis that selects a different code path or RNG
// stream in core.Run. Combinations the spec registry rejects are skipped,
// so the fixture covers exactly what a validated spec can reach.
var (
	goldenGraphs = []struct {
		label string
		spec  spec.GraphSpec
	}{
		{"rr1000d16", spec.GraphSpec{Family: "random-regular", N: 1000, D: 16, Seed: 5}},
		{"kv700", spec.GraphSpec{Family: "complete-virtual", N: 700}},
	}
	goldenVariants = []struct {
		label   string
		variant *spec.VariantSpec
	}{
		{"sync", nil},
		{"async", &spec.VariantSpec{Name: "async"}},
		{"stubborn0.1", &spec.VariantSpec{Name: "stubborn", StubbornFrac: 0.1}},
		{"plurality4", &spec.VariantSpec{Name: "plurality", Q: 4}},
	}
	goldenRules = []struct {
		label string
		rule  *spec.RuleSpec
	}{
		{"k3", nil},
		{"k1", &spec.RuleSpec{K: 1}},
		{"k2keep", &spec.RuleSpec{K: 2, Tie: "keep"}},
		{"k2random", &spec.RuleSpec{K: 2, Tie: "random"}},
		{"k3noreplace", &spec.RuleSpec{K: 3, Tie: "random", WithoutReplacement: true}},
		{"k4noreplace", &spec.RuleSpec{K: 4, Tie: "random", WithoutReplacement: true}},
		{"k3noise0.01", &spec.RuleSpec{K: 3, Noise: 0.01}},
		{"k3noise0.05", &spec.RuleSpec{K: 3, Noise: 0.05}},
		{"k2randomnoise0.1", &spec.RuleSpec{K: 2, Tie: "random", Noise: 0.1}},
		{"k3noreplacenoise0.05", &spec.RuleSpec{K: 3, WithoutReplacement: true, Noise: 0.05}},
		// k = 40 lets a noise flip draw Bin(m ≥ 32, 0.4): the BTRS branch
		// of rng.Source.Binomial.
		{"k40noise0.4", &spec.RuleSpec{K: 40, Noise: 0.4}},
		// At noise 0.05, m·p ≤ 2 < 10, so k = 40 draws Bin(m, 0.05) by
		// geometric skips on both sides of rng.BinomialTable's 32-trial
		// cap.
		{"k40noise0.05", &spec.RuleSpec{K: 40, Noise: 0.05}},
		// Noise 1/2 is Binomial's per-trial branch at its upper edge.
		{"k3noise0.5", &spec.RuleSpec{K: 3, Noise: 0.5}},
	}
	goldenEngines = []string{"auto", "general"}
	goldenSeeds   = []uint64{1, 2, 3}
	// goldenDeltas pin the initial colouring's edge cases with the default
	// rule, after the grid above. δ = 0 colours at pBlue = ½, the exact
	// 2⁵² word threshold. δ = ½ colours at pBlue = 0, which draws no word:
	// only the stubborn variant, whose zealot permutation reads the stream
	// right after the colouring, can tell (sync and async start in
	// consensus there).
	goldenDeltas = []struct {
		delta    float64
		variants []string // goldenVariants labels
	}{
		{0, []string{"sync", "async", "stubborn0.1"}},
		{0.5, []string{"stubborn0.1"}},
	}
)

const (
	goldenDelta     = 0.05
	goldenMaxRounds = 30
)

// goldenLines runs every valid grid point through core.Run and renders one
// line per case: its label, rounds, outcome and full blue trajectory.
func goldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	graphs := make([]core.Topology, len(goldenGraphs))
	for i, gr := range goldenGraphs {
		g, err := gr.spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		graphs[i] = g
		for _, v := range goldenVariants {
			for _, r := range goldenRules {
				for _, e := range goldenEngines {
					s := spec.RunSpec{Graph: gr.spec, Delta: goldenDelta, MaxRounds: goldenMaxRounds, Rule: r.rule, Engine: e, Variant: v.variant}
					lines = append(lines, goldenCase(t, g, s, fmt.Sprintf("%s/%s/%s/%s", gr.label, v.label, r.label, e))...)
				}
			}
		}
	}
	for _, d := range goldenDeltas {
		for i, gr := range goldenGraphs {
			for _, v := range goldenVariants {
				if !slices.Contains(d.variants, v.label) {
					continue
				}
				for _, e := range goldenEngines {
					s := spec.RunSpec{Graph: gr.spec, Delta: d.delta, MaxRounds: goldenMaxRounds, Engine: e, Variant: v.variant}
					lines = append(lines, goldenCase(t, graphs[i], s, fmt.Sprintf("%s/%s/k3/%s/d%v", gr.label, v.label, e, d.delta))...)
				}
			}
		}
	}
	return lines
}

// goldenCase renders one line per seed for a spec, or none if the spec
// registry rejects it.
func goldenCase(t *testing.T, g core.Topology, s spec.RunSpec, label string) []string {
	t.Helper()
	if s.Validate() != nil {
		return nil
	}
	rule, _ := s.DynamicsRule()
	engine, _ := s.EngineMode()
	var lines []string
	for _, seed := range goldenSeeds {
		rep, err := core.Run(context.Background(), g, s.Delta, core.Options{
			Seed:      seed,
			MaxRounds: s.MaxRounds,
			Rule:      rule,
			Engine:    engine,
			Variant:   s.CoreVariant(),
		})
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		traj := make([]string, len(rep.BlueTrajectory))
		for i, b := range rep.BlueTrajectory {
			traj[i] = strconv.Itoa(b)
		}
		lines = append(lines, fmt.Sprintf("%s/s%d rounds=%d consensus=%t red_won=%t blues=%s",
			label, seed, rep.Rounds, rep.Consensus, rep.RedWon, strings.Join(traj, ",")))
	}
	return lines
}

// TestGoldenTrajectories pins core.Run's v1 RNG streams case by case:
// every variant, engine path and rule branch (with and without
// replacement, tie rules, noise through both Binomial branches) must
// reproduce the committed rounds, outcome and per-round blue counts
// exactly. A refactor of the run loop or the sampling kernel that keeps
// the streams passes unchanged; one that moves a single RNG draw fails
// here.
func TestGoldenTrajectories(t *testing.T) {
	got := goldenLines(t)
	path := filepath.Join("testdata", goldenFile)
	if *update {
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture (regenerate with -update): %v", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d cases, fixture has %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 5 {
				t.Errorf("trajectory drift:\n got  %s\n want %s", got[i], want[i])
			}
		}
	}
	if bad > 0 {
		t.Fatalf("%d of %d cases differ from %s", bad, len(got), path)
	}
}
