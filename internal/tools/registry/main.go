// Command registry prints one registry the documentation must match, one
// entry per line:
//
//	go run ./internal/tools/registry families   # spec graph families, sorted
//	go run ./internal/tools/registry variants   # spec variants, sorted
//	go run ./internal/tools/registry metrics    # every bo3serve /metrics family
//	go run ./internal/tools/registry grids      # sweepable experiment rows at Quick scale
//
// A grids line is the experiment id, a space, and the row's grid and
// round cap as one JSON object — the grid and max_rounds fields of a
// POST /v1/sweeps body. CI (.github/check-api-docs.sh) checks the name
// lists against their tables in docs/API.md and the grids against the
// sweep-grid table in DESIGN.md, so the documentation cannot drift from
// the code.
package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/serve"
	"repro/spec"
)

func main() {
	registries := map[string]func() []string{
		"families": spec.Families,
		"variants": spec.Variants,
		"metrics":  serve.AllMetricNames,
		"grids":    grids,
	}
	var list func() []string
	if len(os.Args) == 2 {
		list = registries[os.Args[1]]
	}
	if list == nil {
		fmt.Fprintln(os.Stderr, "usage: registry families|variants|metrics|grids")
		os.Exit(2)
	}
	for _, name := range list() {
		fmt.Println(name)
	}
}

// grids renders each sweepable registry row at experiments.Quick() scale,
// in id order.
func grids() []string {
	cfg := experiments.Quick()
	rows := experiments.Grids(cfg)
	var out []string
	for _, id := range experiments.GridIDs(cfg) {
		body, err := json.Marshal(rows[id])
		if err != nil {
			panic(err) // plain data structs always marshal
		}
		out = append(out, id+" "+string(body))
	}
	return out
}
