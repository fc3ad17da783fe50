package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "sweep", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10, 60] once, not twice.
		{ID: 2, Parent: 1, Name: "cell", Start: 10 * ms, End: 50 * ms},
		{ID: 3, Parent: 1, Name: "cell", Start: 30 * ms, End: 60 * ms},
		// A child sticking out of its parent only counts inside it.
		{ID: 4, Parent: 1, Name: "cell", Start: 90 * ms, End: 120 * ms},
		{ID: 5, Parent: 2, Name: "exec", Start: 15 * ms, End: 45 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 40 * ms, 2: 10 * ms, 3: 30 * ms, 4: 30 * ms, 5: 30 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %v, want %v", id, self[id], w)
		}
	}
	byName := selfByName(spans)
	if got := byName["cell"]; math.Abs(got-0.070) > 1e-9 {
		t.Errorf("cell self = %v s, want 0.070", got)
	}
	if got := byName["sweep"]; math.Abs(got-0.040) > 1e-9 {
		t.Errorf("sweep self = %v s, want 0.040", got)
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]time.Duration{{5, 10}, {0, 3}, {2, 4}, {8, 12}}
	if got := covered(iv, 0, 20); got != 11 {
		t.Fatalf("union = %v, want 11", got)
	}
	if got := covered(iv, 3, 9); got != 5 {
		t.Fatalf("clipped union = %v, want 5", got)
	}
	if got := covered(nil, 0, 9); got != 0 {
		t.Fatalf("empty union = %v", got)
	}
}

func TestClosureGap(t *testing.T) {
	if g := closureGap(10, 4, 3, 2); math.Abs(g-0.1) > 1e-12 {
		t.Fatalf("gap = %v, want 0.1", g)
	}
	if g := closureGap(10, 6, 5); math.Abs(g+0.1) > 1e-12 {
		t.Fatalf("over-claimed gap = %v, want -0.1", g)
	}
	if g := closureGap(0, 1); g != 0 {
		t.Fatalf("empty total gap = %v", g)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	now := time.Now()
	if id := tr.add("x", "", 0, now, now); id != 0 || len(tr.snapshot()) != 0 {
		t.Fatal("an untraced run recorded a span")
	}
	on := newTracer(true)
	a := on.add("a", "t", 0, now, now.Add(time.Second))
	b := on.add("b", "t", a, now, now)
	if s := on.snapshot(); len(s) != 2 || s[1].Parent != a || s[1].ID != b {
		t.Fatalf("spans = %+v", s)
	}
}
