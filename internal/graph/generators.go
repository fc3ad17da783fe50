package graph

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Complete returns the complete graph K_n. This is the topology studied by
// the bulk of the prior Best-of-k literature ([2], [8] in the paper) and the
// α → 1 extreme of the paper's dense family.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	b.SetName(fmt.Sprintf("complete(n=%d)", n))
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// Cycle returns the n-cycle (n >= 3), the canonical constant-degree sparse
// graph: Theorem 1's density requirement fails here, so consensus slows to
// polynomial time.
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: Cycle requires n >= 3")
	}
	b := NewBuilder(n)
	b.SetName(fmt.Sprintf("cycle(n=%d)", n))
	for v := 0; v < n; v++ {
		b.AddEdge(v, (v+1)%n)
	}
	return b.Build()
}

// Torus2D returns the rows×cols torus (wrap-around grid), a degree-4 sparse
// baseline. Requires rows, cols >= 3 so that the graph is simple.
func Torus2D(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		panic("graph: Torus2D requires rows, cols >= 3")
	}
	b := NewBuilder(rows * cols)
	b.SetName(fmt.Sprintf("torus(%dx%d)", rows, cols))
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.AddEdge(id(r, c), id((r+1)%rows, c))
			b.AddEdge(id(r, c), id(r, (c+1)%cols))
		}
	}
	return b.Build()
}

// Hypercube returns the dim-dimensional hypercube on 2^dim vertices, a
// log-degree graph sitting between the paper's dense family and constant-
// degree graphs.
func Hypercube(dim int) *Graph {
	if dim < 1 || dim > 30 {
		panic("graph: Hypercube requires 1 <= dim <= 30")
	}
	n := 1 << dim
	b := NewBuilder(n)
	b.SetName(fmt.Sprintf("hypercube(dim=%d)", dim))
	for v := 0; v < n; v++ {
		for bit := 0; bit < dim; bit++ {
			w := v ^ (1 << bit)
			if v < w {
				b.AddEdge(v, w)
			}
		}
	}
	return b.Build()
}

// Gnp returns an Erdős–Rényi G(n, p) graph. Edge generation uses geometric
// skipping over the (n choose 2) canonical edge slots, so the run time is
// O(n + m) rather than O(n²).
func Gnp(n int, p float64, src *rng.Source) *Graph {
	if !(p >= 0 && p <= 1) {
		panic("graph: Gnp requires p in [0,1]")
	}
	b := NewBuilder(n)
	b.SetName(fmt.Sprintf("gnp(n=%d,p=%.4g)", n, p))
	if p == 0 || n < 2 {
		return b.Build()
	}
	if p == 1 {
		return Complete(n)
	}
	total := int64(n) * int64(n-1) / 2
	slotToEdge := func(s int64) (int, int) {
		// Row u occupies slots [u·n − u(u+1)/2 … ) of the upper triangle.
		u := int((2*float64(n) - 1 - math.Sqrt((2*float64(n)-1)*(2*float64(n)-1)-8*float64(s))) / 2)
		// Float rounding can be off by one row; correct exactly.
		rowStart := func(u int64) int64 { return u*int64(n) - u*(u+1)/2 }
		for rowStart(int64(u)+1) <= s {
			u++
		}
		for u > 0 && rowStart(int64(u)) > s {
			u--
		}
		v := int(s-rowStart(int64(u))) + u + 1
		return u, v
	}
	s := int64(-1)
	for {
		s += 1 + int64(src.Geometric(p))
		if s >= total {
			break
		}
		u, v := slotToEdge(s)
		b.AddEdge(u, v)
	}
	return b.Build()
}

// RandomRegular returns a uniform-ish random d-regular simple graph via the
// configuration model: d half-edges ("stubs") per vertex are paired at
// random; pairings that produce self-loops or multi-edges are repaired by
// random edge switches, falling back to full resampling if repair stalls.
// n·d must be even and d < n.
func RandomRegular(n, d int, src *rng.Source) *Graph {
	if d < 0 || d >= n {
		panic(fmt.Sprintf("graph: RandomRegular requires 0 <= d < n, got n=%d d=%d", n, d))
	}
	if n*d%2 != 0 {
		panic("graph: RandomRegular requires n·d even")
	}
	name := fmt.Sprintf("regular(n=%d,d=%d)", n, d)
	if d == 0 {
		b := NewBuilder(n)
		b.SetName(name)
		return b.Build()
	}
	// Dense regime: pairing rarely succeeds for d close to n, but the
	// complement trick keeps generation fast: a (n-1-d)-regular complement
	// is sparse.
	if d > n/2 && n-1-d >= 0 && n*(n-1-d)%2 == 0 {
		comp := RandomRegular(n, n-1-d, src)
		g := complement(comp)
		g.name = name
		return g
	}

	for attempt := 0; ; attempt++ {
		edges, ok := pairStubs(n, d, src)
		if !ok {
			if attempt > 200 {
				panic(fmt.Sprintf("graph: RandomRegular(n=%d,d=%d) failed to converge", n, d))
			}
			continue
		}
		b := NewBuilder(n)
		b.SetName(name)
		for _, e := range edges {
			b.AddEdge(int(e[0]), int(e[1]))
		}
		return b.Build()
	}
}

// pairStubs runs one configuration-model pass followed by switch-based
// repair. It reports failure if repair cannot remove all defects.
func pairStubs(n, d int, src *rng.Source) ([][2]int32, bool) {
	stubs := make([]int32, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs[v*d+i] = int32(v)
		}
	}
	src.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })

	type edge = [2]int32
	edges := make([]edge, 0, n*d/2)
	used := make(map[int64]bool, n*d/2)
	key := func(u, v int32) int64 {
		if u > v {
			u, v = v, u
		}
		return int64(u)*int64(n) + int64(v)
	}
	var bad []edge // self-loops and duplicates to repair
	for i := 0; i < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v || used[key(u, v)] {
			bad = append(bad, edge{u, v})
			continue
		}
		used[key(u, v)] = true
		edges = append(edges, edge{u, v})
	}
	// Repair: switch each bad pair (u,v) with a random good edge (x,y) so
	// that (u,x) and (v,y) are both fresh simple edges.
	maxTries := 100 * (len(bad) + 1) * (d + 1)
	tries := 0
	for len(bad) > 0 {
		if tries++; tries > maxTries {
			return nil, false
		}
		bd := bad[len(bad)-1]
		u, v := bd[0], bd[1]
		i := src.Intn(len(edges))
		x, y := edges[i][0], edges[i][1]
		if src.Bernoulli(0.5) {
			x, y = y, x
		}
		if u == x || v == y || used[key(u, x)] || used[key(v, y)] {
			continue
		}
		delete(used, key(x, y))
		used[key(u, x)] = true
		used[key(v, y)] = true
		edges[i] = edge{u, x}
		edges = append(edges, edge{v, y})
		bad = bad[:len(bad)-1]
	}
	return edges, true
}

// complement returns the complement graph of g (no name set).
func complement(g *Graph) *Graph {
	n := g.N()
	b := NewBuilder(n)
	for u := 0; u < n; u++ {
		list := g.Neighbors(u)
		idx := 0
		for v := u + 1; v < n; v++ {
			for idx < len(list) && int(list[idx]) < v {
				idx++
			}
			if idx < len(list) && int(list[idx]) == v {
				continue
			}
			b.AddEdge(u, v)
		}
	}
	return b.Build()
}

// DenseMinDegree returns a concrete member of the paper's graph class with
// minimum degree d = ceil(n^alpha): a random d-regular graph (so min degree
// is exactly d). It panics unless 0 < alpha <= 1.
func DenseMinDegree(n int, alpha float64, src *rng.Source) *Graph {
	if !(alpha > 0 && alpha <= 1) {
		panic("graph: DenseMinDegree requires alpha in (0,1]")
	}
	d := int(math.Ceil(math.Pow(float64(n), alpha)))
	if d >= n {
		return Complete(n)
	}
	if (n*d)%2 != 0 {
		d++ // keep n·d even; only increases density
		if d >= n {
			return Complete(n)
		}
	}
	g := RandomRegular(n, d, src)
	g.name = fmt.Sprintf("dense(n=%d,alpha=%.3f,d=%d)", n, alpha, d)
	return g
}

// SBM returns a two-block stochastic block model: blocks of sizes a and b,
// within-block edge probability pin and across-block probability pout.
// Used by the social-polling example: two communities with different
// internal densities.
func SBM(a, b int, pin, pout float64, src *rng.Source) *Graph {
	if !(pin >= 0 && pin <= 1 && pout >= 0 && pout <= 1) {
		panic("graph: SBM probabilities must lie in [0,1]")
	}
	n := a + b
	bld := NewBuilder(n)
	bld.SetName(fmt.Sprintf("sbm(a=%d,b=%d,pin=%.3g,pout=%.3g)", a, b, pin, pout))
	addBlock := func(lo, hi int, p float64) {
		if p <= 0 {
			return
		}
		for u := lo; u < hi; u++ {
			v := u
			for {
				skip := 1
				if p < 1 {
					skip = 1 + src.Geometric(p)
				}
				v += skip
				if v >= hi {
					break
				}
				bld.AddEdge(u, v)
			}
		}
	}
	addBlock(0, a, pin)
	addBlock(a, n, pin)
	if pout > 0 {
		for u := 0; u < a; u++ {
			v := a - 1
			for {
				skip := 1
				if pout < 1 {
					skip = 1 + src.Geometric(pout)
				}
				v += skip
				if v >= n {
					break
				}
				bld.AddEdge(u, v)
			}
		}
	}
	return bld.Build()
}

// WattsStrogatz returns a small-world graph: a ring lattice where every
// vertex connects to its k nearest neighbours on each side, with each
// lattice edge independently rewired to a uniform random endpoint with
// probability beta (avoiding self-loops and duplicates; unrewirable edges
// stay in place). beta = 0 is the ring lattice, beta = 1 approaches a
// random graph. The small-world regime sits between the paper's dense
// class and the constant-degree counterexamples, making it a useful probe
// for the density-gate experiments.
func WattsStrogatz(n, k int, beta float64, src *rng.Source) *Graph {
	if k < 1 || 2*k >= n {
		panic(fmt.Sprintf("graph: WattsStrogatz requires 1 <= k < n/2, got n=%d k=%d", n, k))
	}
	if !(beta >= 0 && beta <= 1) {
		panic("graph: WattsStrogatz requires beta in [0,1]")
	}
	type edge = [2]int32
	edges := make([]edge, 0, n*k)
	used := make(map[int64]bool, n*k)
	key := func(u, v int32) int64 {
		if u > v {
			u, v = v, u
		}
		return int64(u)*int64(n) + int64(v)
	}
	for v := 0; v < n; v++ {
		for j := 1; j <= k; j++ {
			u, w := int32(v), int32((v+j)%n)
			edges = append(edges, edge{u, w})
			used[key(u, w)] = true
		}
	}
	for i := range edges {
		if !src.Bernoulli(beta) {
			continue
		}
		u := edges[i][0]
		// Try a handful of random endpoints; keep the lattice edge if the
		// vertex is saturated (dense small k makes failure vanishing).
		for attempt := 0; attempt < 32; attempt++ {
			w := int32(src.Intn(n))
			if w == u || used[key(u, w)] {
				continue
			}
			delete(used, key(edges[i][0], edges[i][1]))
			used[key(u, w)] = true
			edges[i][1] = w
			break
		}
	}
	b := NewBuilder(n)
	b.SetName(fmt.Sprintf("wattsstrogatz(n=%d,k=%d,beta=%.3g)", n, k, beta))
	for _, e := range edges {
		b.AddEdge(int(e[0]), int(e[1]))
	}
	return b.Build()
}
