package graph

import "math"

// BFS returns the distance (in edges) from src to every vertex, with -1 for
// unreachable vertices.
func (g *Graph) BFS(src int) []int {
	n := g.N()
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	if src < 0 || src >= n {
		return dist
	}
	dist[src] = 0
	queue := make([]int32, 0, n)
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		v := int(queue[0])
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if dist[w] == -1 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// IsConnected reports whether the graph is connected. The empty graph and
// the single-vertex graph count as connected.
func (g *Graph) IsConnected() bool {
	n := g.N()
	if n <= 1 {
		return true
	}
	for _, d := range g.BFS(0) {
		if d == -1 {
			return false
		}
	}
	return true
}

// SecondEigenvalue estimates λ₂, the second-largest *absolute* eigenvalue of
// the lazy transition matrix P' = (I + D⁻¹A)/2, by power iteration on the
// component orthogonal to the stationary distribution. The lazy walk makes
// the spectrum non-negative so the estimate is also a bound for |λ_n|
// asymmetries. This connects the repository to the spectral condition
// d(R₀) − d(B₀) ≥ 4λ₂·d(V) of Cooper et al. [5], which the paper contrasts
// with its own density condition.
//
// iters controls the number of power iterations; 200 is plenty for the
// experiment graphs. Returns 1 for disconnected or bipartite-degenerate
// inputs where the walk does not mix.
func (g *Graph) SecondEigenvalue(iters int) float64 {
	n := g.N()
	if n < 2 {
		return 0
	}
	if !g.IsConnected() {
		return 1
	}
	// Stationary distribution of the random walk: π(v) ∝ deg(v).
	totalDeg := 2 * float64(g.M())
	if totalDeg == 0 {
		return 1
	}
	pi := make([]float64, n)
	for v := 0; v < n; v++ {
		pi[v] = float64(g.Degree(v)) / totalDeg
	}
	// Start from a deterministic vector orthogonal to 1 in the π-inner
	// product.
	x := make([]float64, n)
	for v := range x {
		x[v] = math.Sin(float64(v) + 1)
	}
	y := make([]float64, n)
	projectAndNormalise := func(x []float64) float64 {
		dot := 0.0
		for v := range x {
			dot += pi[v] * x[v]
		}
		norm := 0.0
		for v := range x {
			x[v] -= dot
			norm += pi[v] * x[v] * x[v]
		}
		norm = math.Sqrt(norm)
		if norm > 0 {
			for v := range x {
				x[v] /= norm
			}
		}
		return norm
	}
	projectAndNormalise(x)
	lambda := 1.0
	for it := 0; it < iters; it++ {
		// y = P'x with P' = (I + D⁻¹A)/2.
		for v := 0; v < n; v++ {
			sum := 0.0
			for _, w := range g.Neighbors(v) {
				sum += x[w]
			}
			deg := float64(g.Degree(v))
			if deg == 0 {
				y[v] = x[v]
				continue
			}
			y[v] = 0.5*x[v] + 0.5*sum/deg
		}
		x, y = y, x
		lambda = projectAndNormalise(x)
	}
	// λ₂ of the lazy walk is (1 + λ₂(P))/2; undo the lazification to report
	// the eigenvalue of the plain transition matrix, clamped to [0, 1].
	plain := 2*lambda - 1
	if plain < 0 {
		plain = 0
	}
	if plain > 1 {
		plain = 1
	}
	return plain
}
