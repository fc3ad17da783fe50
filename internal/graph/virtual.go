package graph

import "fmt"

// Kn is a virtual complete graph on n vertices: it answers the same
// neighbour queries as Complete(n) without materialising the Θ(n²) edge
// list, so complete-graph experiments scale to n = 2^17 and beyond. The
// neighbour list of v is the sorted sequence 0..n-1 with v removed.
type Kn int

// NewKn returns the virtual complete graph on n vertices (n >= 1).
func NewKn(n int) Kn {
	if n < 1 {
		panic("graph: NewKn requires n >= 1")
	}
	return Kn(n)
}

// N returns the number of vertices.
func (k Kn) N() int { return int(k) }

// Degree returns n-1 for every vertex.
func (k Kn) Degree(v int) int { return int(k) - 1 }

// MinDegree returns n-1.
func (k Kn) MinDegree() int { return int(k) - 1 }

// Neighbor returns the i-th smallest neighbour of v: i for i < v,
// otherwise i+1.
func (k Kn) Neighbor(v, i int) int {
	if i < v {
		return i
	}
	return i + 1
}

// Name identifies the topology in experiment tables.
func (k Kn) Name() string { return fmt.Sprintf("complete(n=%d,virtual)", int(k)) }

// MeanFieldEligible marks the virtual complete graph as mean-field
// exchangeable: every vertex samples uniformly from all other vertices, so
// one Best-of-k round depends on the configuration only through the global
// blue count. The dynamics engine dispatches such topologies to an O(1)
// per-round fast path (two binomial draws) instead of Θ(n·k) sampling.
func (k Kn) MeanFieldEligible() bool { return int(k) >= 2 }
