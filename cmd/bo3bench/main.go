// Command bo3bench runs the repository's named performance scenarios and
// emits a machine-readable benchmark report, establishing the perf
// trajectory of the engine across PRs.
//
// Scenarios cover the three layers of the stack: raw round throughput of
// the dynamics engines per graph family and size (including the mean-field
// K_n fast path against the general engine on the same instance),
// trial throughput through the public repro.Runner, and end-to-end job
// throughput through an in-process bo3serve HTTP server.
//
// Usage:
//
//	go run ./cmd/bo3bench                      # all scenarios, report to stdout
//	go run ./cmd/bo3bench -out BENCH_engine.json
//	go run ./cmd/bo3bench -run round/kn       # name-prefix filter
//	go run ./cmd/bo3bench -list               # registered scenario names
//	go run ./cmd/bo3bench -quick              # reduced scale (CI smoke)
//
// The committed BENCH_engine.json at the repository root is regenerated
// with `go run ./cmd/bo3bench -out BENCH_engine.json`; the scenario table
// in docs/PERFORMANCE.md is checked against -list by CI
// (.github/check-api-docs.sh).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// report is the BENCH_engine.json shape.
type report struct {
	Schema     int                `json:"schema"`
	Generated  string             `json:"generated"`
	GoVersion  string             `json:"go_version"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	Seed       uint64             `json:"seed"`
	Quick      bool               `json:"quick,omitempty"`
	Scenarios  []scenarioResult   `json:"scenarios"`
	Summary    map[string]float64 `json:"summary,omitempty"`
}

type scenarioResult struct {
	Name        string             `json:"name"`
	Description string             `json:"description"`
	Params      map[string]any     `json:"params"`
	Metrics     map[string]float64 `json:"metrics"`
	ElapsedMS   int64              `json:"elapsed_ms"`
}

func main() {
	var (
		list  = flag.Bool("list", false, "print registered scenario names, one per line, and exit")
		runF  = flag.String("run", "", "comma-separated scenario name prefixes to run (default: all)")
		out   = flag.String("out", "", "write the JSON report to this file instead of stdout")
		quick = flag.Bool("quick", false, "reduced scale for CI smoke runs")
		seed  = flag.Uint64("seed", 1, "seed for all scenario randomness")
		knN   = flag.Int("kn-n", 1_000_000, "vertex count for the K_n round-throughput scenarios")
	)
	flag.Parse()

	if *list {
		for _, sc := range scenarios {
			fmt.Println(sc.name)
		}
		return
	}

	scale := Scale{KnN: *knN, Seed: *seed, Quick: *quick}
	if *quick {
		scale.KnN = 1 << 15
	}

	var prefixes []string
	if *runF != "" {
		prefixes = strings.Split(*runF, ",")
	}
	match := func(name string) bool {
		if len(prefixes) == 0 {
			return true
		}
		for _, p := range prefixes {
			if strings.HasPrefix(name, strings.TrimSpace(p)) {
				return true
			}
		}
		return false
	}

	rep := report{
		Schema:     1,
		Generated:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       *seed,
		Quick:      *quick,
	}
	for _, sc := range scenarios {
		if !match(sc.name) {
			continue
		}
		fmt.Fprintf(os.Stderr, "bo3bench: running %s...\n", sc.name)
		start := time.Now()
		params, metrics, err := sc.run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bo3bench: scenario %s: %v\n", sc.name, err)
			os.Exit(1)
		}
		rep.Scenarios = append(rep.Scenarios, scenarioResult{
			Name:        sc.name,
			Description: sc.description,
			Params:      params,
			Metrics:     metrics,
			ElapsedMS:   time.Since(start).Milliseconds(),
		})
	}
	rep.Summary = summarize(rep.Scenarios)

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bo3bench: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bo3bench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bo3bench: wrote %s (%d scenarios)\n", *out, len(rep.Scenarios))
}

// summarize derives cross-scenario headline numbers; the mean-field
// speedup is the acceptance criterion the committed report records.
func summarize(results []scenarioResult) map[string]float64 {
	byName := map[string]map[string]float64{}
	for _, r := range results {
		byName[r.Name] = r.Metrics
	}
	sum := map[string]float64{}
	if mf, ok := byName["round/kn-meanfield"]; ok {
		if gen, ok := byName["round/kn-general"]; ok && mf["ns_per_round"] > 0 {
			sum["kn_meanfield_speedup_vs_general"] = gen["ns_per_round"] / mf["ns_per_round"]
		}
	}
	if c, ok := byName["serve/cached-jobs"]; ok && c["hit_speedup"] > 0 {
		sum["serve_cached_hit_speedup"] = c["hit_speedup"]
	}
	return sum
}
