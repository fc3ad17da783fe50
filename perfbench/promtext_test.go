package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

func loadFixture(t *testing.T, name string) scrape {
	t.Helper()
	f, err := os.Open("testdata/" + name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc, err := parseExposition(f)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestHistogramDeltas(t *testing.T) {
	before, after := loadFixture(t, "before.prom"), loadFixture(t, "after.prom")

	sum, count := histDelta(before, after, "bo3_http_request_seconds", nil)
	if !near(sum, 0.023) || count != 14 {
		t.Fatalf("http delta = %v s over %v requests, want 0.023 over 14", sum, count)
	}
	// Route labels contain braces; filtering on them must still work.
	notScrape := func(l map[string]string) bool { return l["route"] != "GET /metrics" }
	if sum, count = histDelta(before, after, "bo3_http_request_seconds", notScrape); !near(sum, 0.0225) || count != 13 {
		t.Fatalf("http delta without scrapes = %v over %v", sum, count)
	}
	byRoute := func(l map[string]string) bool { return l["route"] == "GET /v1/runs/{id}" }
	if _, count = histDelta(before, after, "bo3_http_request_seconds", byRoute); count != 8 {
		t.Fatalf("GET /v1/runs/{id} delta = %v, want 8", count)
	}
	// A series born between the scrapes counts from zero.
	if sum, count = histDelta(before, after, "bo3_job_exec_seconds", nil); !near(sum, 0.51) || count != 7 {
		t.Fatalf("exec delta = %v over %v, want 0.51 over 7", sum, count)
	}
	if d := counterDelta(before, after, "bo3_store_appends_total", nil); d != 12 {
		t.Fatalf("appends delta = %v, want 12", d)
	}
	if d := counterDelta(before, after, "bo3_no_such_metric", nil); d != 0 {
		t.Fatalf("absent family delta = %v", d)
	}
}

func TestExpositionLabelEscapes(t *testing.T) {
	sc := loadFixture(t, "before.prom")
	for _, s := range sc {
		if s.name == "bo3_build_info" {
			if got := s.labels["commit"]; got != `abc "quoted" \ x` {
				t.Fatalf("commit label = %q", got)
			}
			return
		}
	}
	t.Fatal("bo3_build_info not parsed")
}

func TestExpositionRejectsGarbage(t *testing.T) {
	for _, bad := range []string{"no_value_here", `x{a="unterminated} 1`, "x{a=1} 2", "x notanumber"} {
		if _, err := parseExposition(strings.NewReader(bad + "\n")); err == nil {
			t.Errorf("parsed %q", bad)
		}
	}
}
