package graph

import "testing"

func TestKnMatchesComplete(t *testing.T) {
	n := 9
	real := Complete(n)
	virt := NewKn(n)
	if virt.N() != real.N() {
		t.Fatalf("Kn size: N=%d", virt.N())
	}
	if virt.MinDegree() != real.MinDegree() {
		t.Errorf("MinDegree = %d", virt.MinDegree())
	}
	for v := 0; v < n; v++ {
		if virt.Degree(v) != real.Degree(v) {
			t.Fatalf("Degree(%d) = %d", v, virt.Degree(v))
		}
		for i := 0; i < n-1; i++ {
			if virt.Neighbor(v, i) != real.Neighbor(v, i) {
				t.Fatalf("Neighbor(%d,%d) = %d, want %d", v, i, virt.Neighbor(v, i), real.Neighbor(v, i))
			}
		}
	}
}

func TestKnNeighborSkipsSelf(t *testing.T) {
	k := NewKn(5)
	for v := 0; v < 5; v++ {
		seen := map[int]bool{}
		for i := 0; i < 4; i++ {
			w := k.Neighbor(v, i)
			if w == v {
				t.Fatalf("Neighbor(%d,%d) returned self", v, i)
			}
			if seen[w] {
				t.Fatalf("Neighbor(%d,%d) duplicated %d", v, i, w)
			}
			seen[w] = true
		}
	}
}

func TestKnPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewKn(0) did not panic")
		}
	}()
	NewKn(0)
}

func TestKnName(t *testing.T) {
	if got := NewKn(7).Name(); got != "complete(n=7,virtual)" {
		t.Errorf("Name = %q", got)
	}
}
