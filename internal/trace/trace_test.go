package trace

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sample() *Run {
	return &Run{
		Graph:      "regular(n=8,d=3)",
		Protocol:   "best-of-3",
		N:          8,
		Delta:      0.1,
		Seed:       42,
		Consensus:  true,
		RedWon:     true,
		Rounds:     3,
		BlueCounts: []int{3, 2, 1, 0},
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := sample()
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var got Run
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&got, r) {
		t.Errorf("round trip changed the run: %+v", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := sample()
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "# graph=regular(n=8,d=3)") {
		t.Errorf("missing metadata header: %q", out)
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 2+len(r.BlueCounts) || lines[1] != "round,blue_count" {
		t.Fatalf("want a header and %d rows, got %q", len(r.BlueCounts), out)
	}
	for i, bc := range r.BlueCounts {
		if want := fmt.Sprintf("%d,%d", i, bc); lines[2+i] != want {
			t.Errorf("row %d = %q, want %q", i, lines[2+i], want)
		}
	}
}

// Property: JSON round trip preserves arbitrary valid trajectories.
func TestQuickJSONRoundTrip(t *testing.T) {
	f := func(counts []uint8, seed uint64) bool {
		bc := make([]int, len(counts))
		for i, c := range counts {
			bc[i] = int(c)
		}
		r := &Run{N: 256, Seed: seed, BlueCounts: bc}
		if len(bc) > 0 {
			r.Rounds = len(bc) - 1
		}
		var b strings.Builder
		if err := r.WriteJSON(&b); err != nil {
			return false
		}
		var got Run
		if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
			return false
		}
		if len(got.BlueCounts) != len(bc) {
			return false
		}
		for i := range bc {
			if got.BlueCounts[i] != bc[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
