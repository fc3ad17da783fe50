// Package trace records voting-dynamics runs as structured, serialisable
// artifacts: per-round trajectories plus run metadata, with CSV and JSON
// encodings. The CLI tools use it to persist runs for external plotting;
// the tests decode what both writers emit, field by field and row by row,
// so archived traces stay readable.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Run is one recorded simulation run.
type Run struct {
	// Graph names the topology (e.g. "regular(n=8192,d=223)").
	Graph string `json:"graph"`
	// Protocol names the rule (e.g. "best-of-3").
	Protocol string `json:"protocol"`
	// N is the vertex count.
	N int `json:"n"`
	// Delta is the initial imbalance parameter.
	Delta float64 `json:"delta"`
	// Seed reproduces the run.
	Seed uint64 `json:"seed"`
	// Consensus and RedWon summarise the outcome.
	Consensus bool `json:"consensus"`
	RedWon    bool `json:"red_won"`
	// Rounds is the executed round count.
	Rounds int `json:"rounds"`
	// BlueCounts is the per-round number of blue vertices, starting with
	// the initial configuration.
	BlueCounts []int `json:"blue_counts"`
}

// WriteJSON writes the run as indented JSON.
func (r *Run) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteCSV writes the trajectory as a two-column CSV (round, blue_count)
// with a comment header carrying the metadata.
func (r *Run) WriteCSV(w io.Writer) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# graph=%s protocol=%s n=%d delta=%g seed=%d consensus=%v red_won=%v\n",
		r.Graph, r.Protocol, r.N, r.Delta, r.Seed, r.Consensus, r.RedWon)
	b.WriteString("round,blue_count\n")
	for t, bc := range r.BlueCounts {
		b.WriteString(strconv.Itoa(t))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(bc))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}
