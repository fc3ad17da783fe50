// Command bo3sweep regenerates the full reproduction suite (experiments
// E1–E21 of DESIGN.md) and prints one table per experiment, in the format
// recorded in EXPERIMENTS.md.
//
// Usage:
//
//	bo3sweep                 # default scale (minutes)
//	bo3sweep -quick          # reduced scale (seconds)
//	bo3sweep -only E1,E7     # subset
//	bo3sweep -csv out/       # additionally write CSV files
//
// With -serve it instead replays a parameter grid through a running
// bo3serve instance as a load test, submitting the whole grid as one POST
// /v1/sweeps request and tailing the NDJSON results stream:
//
//	bo3sweep -serve http://localhost:8080 -quick -concurrency 8
//
// Adding -watch to a -serve session attaches a second, SSE subscription
// to the sweep's live event topic (GET /v1/sweeps/{id}/events) and prints
// round-decimated trajectory frames and cell completions to stderr while
// the sweep runs — including `dropped` notices when this client falls
// behind the server's bounded per-subscriber ring.
//
// The replayed grid is a spec.Grid, the same type the server expands and
// the experiment registry publishes. By default it is the n × δ load-test
// grid over the topology selected by the shared -graph family flags (so
// `-serve … -graph sbm -pin 0.02` sweeps a stochastic block model); with
// -grid it is a registry grid instead:
//
//	bo3sweep -serve http://localhost:8080 -grid E1 -quick
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/internal/table"
)

type runner struct {
	id  string
	run func(experiments.Config) *table.Table
}

// replayGrid resolves the sweep request -serve submits: a named
// registry row (its grid and round cap), or the load-test grid over the
// topology the shared family flags select, with the -variants override
// applied.
func replayGrid(gf *cli.GraphFlags, cfg experiments.Config, gridID, variants string, quick bool, trials int) (serve.SweepRequest, error) {
	req, err := baseGrid(gf, cfg, gridID, quick, trials)
	if err != nil {
		return serve.SweepRequest{}, err
	}
	if variants != "" {
		vs, err := cli.ParseVariants(variants)
		if err != nil {
			return serve.SweepRequest{}, err
		}
		req.Grid.Variants = vs
	}
	return req, nil
}

// baseGrid resolves the sweep before the -variants override: a named
// registry row, or the load-test grid over the selected topology.
func baseGrid(gf *cli.GraphFlags, cfg experiments.Config, gridID string, quick bool, trials int) (serve.SweepRequest, error) {
	if gridID != "" {
		row, ok := experiments.Grids(cfg)[strings.ToUpper(gridID)]
		if !ok {
			return serve.SweepRequest{}, fmt.Errorf("unknown registry grid %q (sweepable: %s)",
				gridID, strings.Join(experiments.GridIDs(cfg), ", "))
		}
		return serve.SweepRequest{Grid: row.Grid, MaxRounds: row.MaxRounds}, nil
	}
	template, err := gf.Spec(cfg.Seed)
	if err != nil {
		return serve.SweepRequest{}, err
	}
	if trials <= 0 {
		trials = 20
		if quick {
			trials = 8
		}
	}
	return serve.SweepRequest{Grid: experiments.LoadTestGrid(template, quick, trials)}, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("bo3sweep: ")

	gf := &cli.GraphFlags{Family: "regular", N: 1 << 14, Alpha: 0.6, D: 32}
	gf.Register(flag.CommandLine)
	var (
		quick    = flag.Bool("quick", false, "reduced scale (seconds instead of minutes)")
		only     = flag.String("only", "", "comma-separated experiment ids to run (default: all)")
		csvDir   = flag.String("csv", "", "directory to write per-experiment CSV files")
		trials   = flag.Int("trials", 0, "override trial count")
		maxN     = flag.Int("maxn", 0, "override largest graph size (at least 1024)")
		seed     = flag.Uint64("seed", 1, "experiment seed")
		workers  = flag.Int("workers", 0, "harness parallelism (0 = GOMAXPROCS)")
		serveURL = flag.String("serve", "", "bo3serve base URL: replay the grid as one server-side /v1/sweeps request")
		gridID   = flag.String("grid", "", "in -serve mode, replay this registry grid (e.g. E1) instead of the -graph load-test grid")
		variants = flag.String("variants", "", "in -serve mode, set the grid's variant axis (comma-separated, e.g. sync,async,stubborn:0.05,plurality:4)")
		conc     = flag.Int("concurrency", 4, "concurrent cells in -serve mode")
		watch    = flag.Bool("watch", false, "in -serve mode, also tail the sweep's live event stream (SSE) and print round-level telemetry to stderr")
	)
	flag.Parse()

	cfg := experiments.Default()
	if *quick {
		cfg = experiments.Quick()
	}
	if *trials > 0 {
		cfg.Trials = *trials
	}
	if *maxN > 0 {
		// The registry grids' size axis starts at 2^10; below it their
		// fixed-degree and fixed-p topologies stop being valid graphs.
		if *maxN < 1<<10 {
			log.Fatalf("-maxn %d is below the registry grids' smallest size %d", *maxN, 1<<10)
		}
		cfg.MaxN = *maxN
	}
	cfg.Seed = *seed
	cfg.Workers = *workers

	if *serveURL != "" {
		req, err := replayGrid(gf, cfg, *gridID, *variants, *quick, *trials)
		if err != nil {
			log.Fatal(err)
		}
		req.Seed, req.Concurrency = *seed, *conc
		if err := sweepTest(*serveURL, req, *watch); err != nil {
			log.Fatal(err)
		}
		return
	}

	all := []runner{
		{"E1", func(c experiments.Config) *table.Table { return experiments.E1ConsensusScaling(c).Table() }},
		{"E2", func(c experiments.Config) *table.Table { return experiments.E2DeltaSweep(c).Table() }},
		{"E3", func(c experiments.Config) *table.Table { return experiments.E3IdealRecursion(c).Table() }},
		{"E4", func(c experiments.Config) *table.Table { return experiments.E4SprinklingMajorisation(c).Table() }},
		{"E5", func(c experiments.Config) *table.Table { return experiments.E5TernaryThreshold(c).Table() }},
		{"E6", func(c experiments.Config) *table.Table { return experiments.E6CollisionTransform(c).Table() }},
		{"E7", func(c experiments.Config) *table.Table { return experiments.E7CollisionTail(c).Table() }},
		{"E8", func(c experiments.Config) *table.Table { return experiments.E8DeltaGrowth(c).Table() }},
		{"E9", func(c experiments.Config) *table.Table { return experiments.E9BaselineComparison(c).Table() }},
		{"E10", func(c experiments.Config) *table.Table { return experiments.E10DensityGate(c).Table() }},
		{"E11", func(c experiments.Config) *table.Table { return experiments.E11CobraDuality(c).Table() }},
		{"E12", func(c experiments.Config) *table.Table { return experiments.E12SprinklingFigure(c).Table() }},
		{"E13", func(c experiments.Config) *table.Table { return experiments.E13PhaseSchedule(c).Table() }},
		{"E14", func(c experiments.Config) *table.Table { return experiments.E14PluralityConsensus(c).Table() }},
		{"E15", func(c experiments.Config) *table.Table { return experiments.E15StubbornZealots(c).Table() }},
		{"E16", func(c experiments.Config) *table.Table { return experiments.E16AdversarialPlacement(c).Table() }},
		{"E17", func(c experiments.Config) *table.Table { return experiments.E17ForwardBackwardDuality(c).Table() }},
		{"E18", func(c experiments.Config) *table.Table { return experiments.E18AsyncVsSync(c).Table() }},
		{"E19", func(c experiments.Config) *table.Table { return experiments.E19NoiseThreshold(c).Table() }},
		{"E20", func(c experiments.Config) *table.Table { return experiments.E20ExactChainValidation(c).Table() }},
		{"E21", func(c experiments.Config) *table.Table { return experiments.E21SpectralComparison(c).Table() }},
	}

	selected := all
	if *only != "" {
		want := map[string]bool{}
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
		selected = selected[:0]
		for _, r := range all {
			if want[r.id] {
				selected = append(selected, r)
			}
		}
		if len(selected) == 0 {
			log.Fatalf("no experiments match -only=%q", *only)
		}
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}

	for _, r := range selected {
		start := time.Now()
		t := r.run(cfg)
		fmt.Println()
		if err := t.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("(%s completed in %v)\n", r.id, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			path := filepath.Join(*csvDir, strings.ToLower(r.id)+".csv")
			f, err := os.Create(path)
			if err != nil {
				log.Fatal(err)
			}
			if err := t.RenderCSV(f); err != nil {
				f.Close()
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}
	}
}
