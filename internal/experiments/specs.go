package experiments

import (
	"context"
	"sort"

	"repro"
	"repro/spec"
)

// This file is the one definition of every sweepable registry row: the
// suite's library functions, `bo3sweep -serve -grid`, and DESIGN.md's
// registry table all take a row's cells from Grids, and runSweep runs them
// through the same repro.Runner POST /v1/sweeps executes cells with.

// Sweep is one sweepable registry row: the grid POST /v1/sweeps expands
// and the round cap its cells run under. It marshals to exactly those two
// fields of a sweep request body.
type Sweep struct {
	Grid spec.Grid `json:"grid"`
	// MaxRounds caps every cell's runs; 0 uses the theory-derived default.
	MaxRounds int `json:"max_rounds,omitempty"`
}

// Grids returns the server-sweepable slice of the E1–E21 registry, scaled
// by cfg (trials per cell, largest n, graph seeds). Entries built on dual
// objects, per-round trajectories, non-i.i.d. starts or graphs outside the
// spec registry are library-only and absent here; DESIGN.md's registry
// table records why, entry by entry. The opinion dynamics ride the grids'
// Variants axis — the same spec.VariantSpec values POST /v1/sweeps
// accepts.
func Grids(cfg Config) map[string]Sweep {
	ns := nsUpTo(cfg.MaxN)
	maxN := ns[len(ns)-1:]
	trials := []int{cfg.Trials}
	return map[string]Sweep{
		// E1: consensus time vs n across the dense families.
		"E1": {Grid: spec.Grid{
			Graphs: []spec.GraphSpec{
				{Family: "dense", Alpha: 0.6, Seed: cfg.Seed},
				{Family: "gnp", P: 0.05, Seed: cfg.Seed},
				{Family: "complete-virtual"},
			},
			NS:     ns,
			Deltas: []float64{0.05},
			Trials: trials,
		}},
		// E2: δ-dependence at fixed n.
		"E2": {Grid: spec.Grid{
			Graphs: []spec.GraphSpec{{Family: "dense", N: cfg.MaxN, Alpha: 0.6, Seed: cfg.Seed}},
			Deltas: []float64{0.2, 0.1, 0.05, 0.02, 0.01},
			Trials: trials,
		}},
		// E9: protocol baselines. The voter model (k = 1) needs Θ(n)
		// rounds on dense graphs, beyond the theory-derived default cap,
		// so the row caps every cell at 6n: enough for the voter model to
		// reach consensus, and the consensus column reports honestly when
		// it does not.
		"E9": {Grid: spec.Grid{
			Graphs: []spec.GraphSpec{
				{Family: "complete-virtual"},
				{Family: "random-regular", D: 32, Seed: cfg.Seed},
			},
			NS:     maxN,
			Deltas: []float64{0.1},
			Ks:     []int{1, 2, 3, 5},
			Trials: trials,
		}, MaxRounds: 6 * maxN[0]},
		// E10: density gate — inside vs outside the paper's class.
		"E10": {Grid: spec.Grid{
			Graphs: []spec.GraphSpec{
				{Family: "dense", Alpha: 0.7, Seed: cfg.Seed},
				{Family: "dense", Alpha: 0.3, Seed: cfg.Seed},
				{Family: "cycle"},
			},
			NS:     maxN,
			Deltas: []float64{0.05},
			Trials: trials,
		}},
		// E14: q-opinion plurality — the variants axis sweeps q on a
		// materialised K_n (plurality always runs on the general engine).
		"E14": {Grid: spec.Grid{
			Graphs: []spec.GraphSpec{{Family: "complete", N: 512}},
			Deltas: []float64{0.05},
			Variants: []spec.VariantSpec{
				{Name: "plurality", Q: 2},
				{Name: "plurality", Q: 3},
				{Name: "plurality", Q: 5},
				{Name: "plurality", Q: 8},
			},
			Trials: trials,
		}},
		// E15: stubborn (zealot) tolerance — frozen-Blue fractions vs the
		// plain protocol on one regular instance. Zealots make consensus
		// unreachable, so the measurement is the blue mass at a fixed
		// 60-round horizon.
		"E15": {Grid: spec.Grid{
			Graphs: []spec.GraphSpec{{Family: "random-regular", N: cfg.MaxN, D: 64, Seed: cfg.Seed}},
			Deltas: []float64{0.05},
			Variants: []spec.VariantSpec{
				{Name: "sync"},
				{Name: "stubborn", StubbornFrac: 0.01},
				{Name: "stubborn", StubbornFrac: 0.05},
				{Name: "stubborn", StubbornFrac: 0.2},
			},
			Trials: trials,
		}, MaxRounds: 60},
		// E18: synchronous rounds vs sequential single-vertex sweeps on
		// the same instances (an async "round" is n activations, so round
		// counts are directly comparable).
		"E18": {Grid: spec.Grid{
			Graphs: []spec.GraphSpec{{Family: "random-regular", D: 32, Seed: cfg.Seed}},
			NS:     maxN,
			Deltas: []float64{0.1, 0.05},
			Variants: []spec.VariantSpec{
				{Name: "sync"},
				{Name: "async"},
			},
			Trials: trials,
		}},
		// E19: per-sample communication noise threshold — the noises axis
		// brackets the regime where misreported samples stall consensus
		// (heavily noised cells run to the 50-round cap; the blue mass
		// there is the measurement, not a failure), crossed with the
		// sync/async dynamic: the threshold location must not depend on
		// the update schedule.
		"E19": {Grid: spec.Grid{
			Graphs: []spec.GraphSpec{
				{Family: "complete-virtual"},
				{Family: "random-regular", D: 32, Seed: cfg.Seed},
			},
			NS:     maxN,
			Deltas: []float64{0.1},
			Noises: []float64{0, 0.02, 0.05, 0.1, 0.2, 0.3},
			Variants: []spec.VariantSpec{
				{Name: "sync"},
				{Name: "async"},
			},
			Trials: trials,
		}, MaxRounds: 50},
		// E20: the simulated side of the exact-chain validation, on the
		// engine the server picks for K_n (the library row forces the
		// general engine against the exact chain instead).
		"E20": {Grid: spec.Grid{
			Graphs: []spec.GraphSpec{{Family: "complete-virtual"}},
			NS:     []int{256, 512, 1024},
			Deltas: []float64{0.05},
			Trials: trials,
		}},
	}
}

// runSweep expands registry row id with sweep seed cfg.Seed and its round
// cap — exactly the cells POST /v1/sweeps would run for the same request —
// and returns one report per cell in expansion order.
func runSweep(cfg Config, id string) []*repro.RunReport {
	row := Grids(cfg)[id]
	row.Grid.Normalize()
	cells := row.Grid.Expand(cfg.Seed, row.MaxRounds)
	reps := make([]*repro.RunReport, len(cells))
	for i, cell := range cells {
		reps[i] = runSpec(cfg, cell)
	}
	return reps
}

// runSpec executes s through repro.Runner, cfg.Workers trials at a time.
// The suite's specs are valid by construction (TestGridsAreServable pins
// the registry's), and a run without a deadline cannot be cancelled, so an
// error here is a bug.
func runSpec(cfg Config, s spec.RunSpec) *repro.RunReport {
	r, err := repro.NewRunner(s, repro.WithWorkers(cfg.Workers))
	if err != nil {
		panic(err)
	}
	rep, err := r.Run(context.Background())
	if err != nil {
		panic(err)
	}
	return rep
}

// GridIDs returns the sweepable experiment ids, sorted.
func GridIDs(cfg Config) []string {
	grids := Grids(cfg)
	ids := make([]string, 0, len(grids))
	for id := range grids {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// nsUpTo lists the power-of-two size axis 2^10 … maxN the scaling
// experiments sweep.
func nsUpTo(maxN int) []int {
	var ns []int
	for n := 1 << 10; n <= maxN; n <<= 1 {
		ns = append(ns, n)
	}
	if len(ns) == 0 {
		ns = []int{maxN}
	}
	return ns
}

// LoadTestGrid is the n × δ grid bo3sweep replays against a running
// bo3serve instance as one /v1/sweeps request, built around an arbitrary
// topology template from the spec registry. Templates of n-parameterised
// families are crossed with the size axis; fixed-size families (torus,
// hypercube, sbm) sweep δ only.
func LoadTestGrid(template spec.GraphSpec, quick bool, trials int) spec.Grid {
	g := spec.Grid{
		Graphs: []spec.GraphSpec{template},
		NS:     []int{1 << 10, 1 << 12, 1 << 14},
		Deltas: []float64{0.02, 0.05, 0.1, 0.2},
		Trials: []int{trials},
	}
	if quick {
		g.NS = []int{1 << 9, 1 << 10}
		g.Deltas = []float64{0.05, 0.2}
	}
	if !spec.FamilyUsesN(template.Family) {
		g.NS = nil
	}
	return g
}
