// Command registry prints one registry the documentation must match, one
// name per line:
//
//	go run ./internal/tools/registry families   # spec graph families, sorted
//	go run ./internal/tools/registry variants   # spec variants, sorted
//	go run ./internal/tools/registry metrics    # every bo3serve /metrics family
//
// CI (.github/check-api-docs.sh) checks each list against its table in
// docs/API.md, so the documentation cannot drift from the code.
package main

import (
	"fmt"
	"os"

	"repro/internal/serve"
	"repro/spec"
)

func main() {
	registries := map[string]func() []string{
		"families": spec.Families,
		"variants": spec.Variants,
		"metrics":  serve.AllMetricNames,
	}
	var list func() []string
	if len(os.Args) == 2 {
		list = registries[os.Args[1]]
	}
	if list == nil {
		fmt.Fprintln(os.Stderr, "usage: registry families|variants|metrics")
		os.Exit(2)
	}
	for _, name := range list() {
		fmt.Println(name)
	}
}
