package main

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/rng"
)

func TestPoissonScheduleReproduces(t *testing.T) {
	a := poissonSchedule(rng.New(42), 500, 2*time.Second)
	b := poissonSchedule(rng.New(42), 500, 2*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("one seed gave two schedules")
	}
	if c := poissonSchedule(rng.New(43), 500, 2*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave one schedule")
	}
	// ~1000 arrivals expected; a Poisson count is within ±4σ (±127).
	if len(a) < 870 || len(a) > 1130 {
		t.Fatalf("%d arrivals at 500/s over 2s", len(a))
	}
	for i, d := range a {
		if d < 0 || d >= 2*time.Second || (i > 0 && d < a[i-1]) {
			t.Fatalf("offset %d = %v out of order or window", i, d)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted input
		}
		return xs
	}
	if v, ok := percentile(seq(1000), 99); v != 990 || !ok {
		t.Fatalf("p99 of 1..1000 = %v ok=%v, want 990 with 10 beyond", v, ok)
	}
	if _, ok := percentile(seq(999), 99); ok {
		t.Fatal("p99 of 999 samples has only 9 beyond it")
	}
	if v, ok := percentile(seq(100), 50); v != 50 || !ok {
		t.Fatalf("p50 of 1..100 = %v ok=%v", v, ok)
	}

	// A failed operation counts as +Inf: 11 failures out of 1000 put the
	// 99th percentile at +Inf.
	xs := seq(1000)
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1)
	}
	if v, _ := percentile(xs, 99); !math.IsInf(v, 1) {
		t.Fatalf("p99 with 11 failures in 1000 = %v, want +Inf", v)
	}
	if v, _ := percentile(xs, 50); math.IsInf(v, 0) {
		t.Fatal("failures leaked into the median")
	}

	for _, c := range []struct {
		n, p int
		ok   bool
	}{{1000, 99, true}, {100, 90, true}, {200, 95, true}, {20, 50, true}, {19, 0, false}} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", c.n, p, ok, c.p, c.ok)
		}
	}
}
