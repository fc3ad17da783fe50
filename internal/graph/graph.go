// Package graph provides the graph substrate for the voting-dynamics
// simulators: an immutable compressed-sparse-row (CSR) adjacency
// representation, a mutable builder, generators for the graph families the
// experiments run (dense minimum-degree graphs, random regular graphs,
// Erdős–Rényi and two-block stochastic block models, the complete graph,
// and the cycle, torus, hypercube and small-world baselines), and
// structural analyses (BFS distances, connectivity, minimum degree and the
// density exponent, a spectral-gap estimate).
//
// The CSR layout stores all adjacency lists in one contiguous int32 slice,
// which is what makes the dynamics hot loop — "pick a uniform random
// neighbour of v" — a single bounded-random index plus one array load.
package graph

import (
	"fmt"
	"math"
)

// Graph is an immutable simple undirected graph in CSR form. Vertices are
// the integers [0, N()). The zero value is an empty graph.
type Graph struct {
	offsets []int32 // len N()+1; adjacency of v is adj[offsets[v]:offsets[v+1]]
	adj     []int32 // concatenated sorted adjacency lists; len 2·M()
	name    string
}

// N returns the number of vertices.
func (g *Graph) N() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.adj) / 2 }

// Name returns a human-readable description of the graph's construction,
// e.g. "regular(n=4096,d=64)". It is used in experiment table rows.
func (g *Graph) Name() string {
	if g.name == "" {
		return fmt.Sprintf("graph(n=%d,m=%d)", g.N(), g.M())
	}
	return g.name
}

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v int) []int32 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// Neighbor returns the i-th neighbour of v (0-indexed into the sorted
// adjacency list). This is the hot-path accessor used by the dynamics
// engine: sampling a uniform neighbour is Neighbor(v, rng.Intn(Degree(v))).
func (g *Graph) Neighbor(v, i int) int {
	return int(g.adj[int(g.offsets[v])+i])
}

// HasEdge reports whether {u, v} is an edge, by binary search over the
// sorted adjacency list of the lower-degree endpoint.
func (g *Graph) HasEdge(u, v int) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	list := g.Neighbors(u)
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(list[mid]) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(list) && int(list[lo]) == v
}

// MinDegree returns the minimum degree, or 0 for an empty graph.
func (g *Graph) MinDegree() int {
	n := g.N()
	if n == 0 {
		return 0
	}
	min := g.Degree(0)
	for v := 1; v < n; v++ {
		if d := g.Degree(v); d < min {
			min = d
		}
	}
	return min
}

// DensityExponent returns α such that MinDegree = N^α, the paper's density
// parameter. It returns 0 for graphs with fewer than 2 vertices or with an
// isolated vertex.
func (g *Graph) DensityExponent() float64 {
	n, d := g.N(), g.MinDegree()
	if n < 2 || d < 1 {
		return 0
	}
	return math.Log(float64(d)) / math.Log(float64(n))
}

// CSR exposes the raw compressed-sparse-row arrays: offsets (length N()+1)
// and the concatenated sorted adjacency lists (length 2·M()). The returned
// slices alias the graph's internal storage and must not be modified; they
// are what the artifact serializer writes to disk.
func (g *Graph) CSR() (offsets, adj []int32) { return g.offsets, g.adj }

// NewCSR adopts pre-built CSR arrays as a graph without copying — the load
// path for deserialized artifacts. It performs the cheap O(V+E) structural
// checks (monotone offsets starting at 0 and ending at len(adj), neighbour
// indices in range, no self-loops); the full invariant set — sortedness,
// symmetry, no parallel edges — is Validate's, which artifact verification
// runs separately. The arrays are adopted as-is and must not be modified
// afterwards.
func NewCSR(offsets, adj []int32, name string) (*Graph, error) {
	if len(offsets) == 0 {
		if len(adj) != 0 {
			return nil, fmt.Errorf("graph: csr with no offsets but %d adjacency entries", len(adj))
		}
		return &Graph{name: name}, nil
	}
	n := len(offsets) - 1
	if offsets[0] != 0 {
		return nil, fmt.Errorf("graph: csr offsets[0] = %d, want 0", offsets[0])
	}
	if int(offsets[n]) != len(adj) {
		return nil, fmt.Errorf("graph: csr offsets[%d] = %d, want %d", n, offsets[n], len(adj))
	}
	// Validate the whole offsets array before slicing adj with any of it:
	// monotonicity plus the endpoint checks above bound every offset to
	// [0, len(adj)]. Checking pairwise while slicing is not enough — e.g.
	// offsets [0, 100, 0] with empty adj passes both endpoint checks and
	// the v=0 monotonicity test, then the slice would panic.
	for v := 0; v < n; v++ {
		if offsets[v+1] < offsets[v] {
			return nil, fmt.Errorf("graph: csr offsets not monotone at vertex %d", v)
		}
	}
	for v := 0; v < n; v++ {
		for _, w := range adj[offsets[v]:offsets[v+1]] {
			if int(w) < 0 || int(w) >= n {
				return nil, fmt.Errorf("graph: csr vertex %d has out-of-range neighbour %d", v, w)
			}
			if int(w) == v {
				return nil, fmt.Errorf("graph: csr self-loop at vertex %d", v)
			}
		}
	}
	return &Graph{offsets: offsets, adj: adj, name: name}, nil
}

// Validate checks the structural invariants of the CSR representation:
// monotone offsets, sorted adjacency lists, no self-loops, no parallel
// edges, and symmetry (u ∈ adj(v) ⇔ v ∈ adj(u)). It is used by generator
// tests and returns a descriptive error on the first violation.
func (g *Graph) Validate() error {
	n := g.N()
	if len(g.offsets) > 0 && g.offsets[0] != 0 {
		return fmt.Errorf("graph: offsets[0] = %d, want 0", g.offsets[0])
	}
	for v := 0; v < n; v++ {
		if g.offsets[v+1] < g.offsets[v] {
			return fmt.Errorf("graph: offsets not monotone at vertex %d", v)
		}
		list := g.Neighbors(v)
		for i, w := range list {
			if int(w) < 0 || int(w) >= n {
				return fmt.Errorf("graph: vertex %d has out-of-range neighbour %d", v, w)
			}
			if int(w) == v {
				return fmt.Errorf("graph: self-loop at vertex %d", v)
			}
			if i > 0 && list[i-1] >= w {
				return fmt.Errorf("graph: adjacency of %d not strictly sorted at position %d", v, i)
			}
			if !g.HasEdge(int(w), v) {
				return fmt.Errorf("graph: edge (%d,%d) not symmetric", v, w)
			}
		}
	}
	if len(g.offsets) > 0 && int(g.offsets[n]) != len(g.adj) {
		return fmt.Errorf("graph: offsets[n] = %d, want %d", g.offsets[n], len(g.adj))
	}
	return nil
}
