package graph

import "fmt"

// Structural oracles for the generator and builder tests. No program
// needs them, so they live with the tests.

// Path returns the path graph on n vertices (n >= 2).
func Path(n int) *Graph {
	if n < 2 {
		panic("graph: Path requires n >= 2")
	}
	b := NewBuilder(n)
	b.SetName(fmt.Sprintf("path(n=%d)", n))
	for v := 0; v+1 < n; v++ {
		b.AddEdge(v, v+1)
	}
	return b.Build()
}

// Components returns the connected components as vertex lists, ordered by
// smallest contained vertex.
func (g *Graph) Components() [][]int {
	n := g.N()
	seen := make([]bool, n)
	var comps [][]int
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		stack := []int{s}
		seen[s] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, w := range g.Neighbors(v) {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, int(w))
				}
			}
		}
		comps = append(comps, comp)
	}
	return comps
}

// IsBipartite reports whether the graph is bipartite (2-colourable).
// Best-of-k dynamics can oscillate forever on bipartite graphs, so
// experiment setup checks this.
func (g *Graph) IsBipartite() bool {
	n := g.N()
	colour := make([]int8, n) // 0 = unvisited, ±1 = the two sides
	for s := 0; s < n; s++ {
		if colour[s] != 0 {
			continue
		}
		colour[s] = 1
		stack := []int{s}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Neighbors(v) {
				if colour[w] == 0 {
					colour[w] = -colour[v]
					stack = append(stack, int(w))
				} else if colour[w] == colour[v] {
					return false
				}
			}
		}
	}
	return true
}

// Diameter returns the exact diameter by running BFS from every vertex.
// O(n·m); intended for the small graphs used in tests and examples. It
// returns -1 for disconnected graphs and 0 for graphs with fewer than two
// vertices.
func (g *Graph) Diameter() int {
	n := g.N()
	if n < 2 {
		return 0
	}
	diam := 0
	for v := 0; v < n; v++ {
		for _, d := range g.BFS(v) {
			if d == -1 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// MaxDegree returns the maximum degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the average degree 2M/N, or 0 for an empty graph.
func (g *Graph) AvgDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return 2 * float64(g.M()) / float64(g.N())
}
