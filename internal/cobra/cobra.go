// Package cobra implements the Coalescing-and-Branching random walk of
// Remark 2 in the paper: at each step every occupied vertex spawns k
// particles (itself plus k−1 copies), each particle moves to a uniformly
// random neighbour, and particles meeting at a vertex coalesce into one.
//
// The paper observes that the random voting-DAG H(v₀) of T levels is
// exactly the trajectory of a T-step COBRA walk with k = 3 started at v₀:
// level T−t of H is the occupied set at walk time t. The duality test in
// the experiment suite drives both objects from the same RNG stream and
// checks the level sizes coincide in distribution.
package cobra

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/rng"
)

// Topology is the neighbour-query interface the walk needs.
type Topology interface {
	N() int
	Degree(v int) int
	Neighbor(v, i int) int
}

// Walk is a running COBRA walk.
type Walk struct {
	g        Topology
	k        int
	occupied *bitset.Set
	nextOcc  *bitset.Set
	src      *rng.Source
	step     int
}

// New returns a COBRA walk with branching factor k started from the given
// seed vertices. It panics if k < 1 or no start vertex is given.
func New(g Topology, k int, starts []int, src *rng.Source) *Walk {
	if k < 1 {
		panic("cobra: branching factor must be >= 1")
	}
	if len(starts) == 0 {
		panic("cobra: need at least one start vertex")
	}
	w := &Walk{
		g:        g,
		k:        k,
		occupied: bitset.New(g.N()),
		nextOcc:  bitset.New(g.N()),
		src:      src,
	}
	for _, v := range starts {
		if v < 0 || v >= g.N() {
			panic(fmt.Sprintf("cobra: start vertex %d out of range [0,%d)", v, g.N()))
		}
		w.occupied.Set(v)
	}
	return w
}

// Step performs one branch-move-coalesce round and returns the new number
// of occupied vertices.
func (w *Walk) Step() int {
	w.nextOcc.Reset()
	w.occupied.ForEach(func(v int) {
		deg := w.g.Degree(v)
		if deg == 0 {
			w.nextOcc.Set(v) // stranded particle stays put
			return
		}
		for i := 0; i < w.k; i++ {
			w.nextOcc.Set(w.g.Neighbor(v, w.src.Intn(deg)))
		}
	})
	w.occupied, w.nextOcc = w.nextOcc, w.occupied
	w.step++
	return w.occupied.Count()
}

// Occupied returns the number of occupied vertices.
func (w *Walk) Occupied() int { return w.occupied.Count() }

// Trajectory runs the walk for steps rounds and returns the occupancy
// counts after each round, starting with the initial count (index 0).
func (w *Walk) Trajectory(steps int) []int {
	out := make([]int, steps+1)
	out[0] = w.Occupied()
	for i := 1; i <= steps; i++ {
		out[i] = w.Step()
	}
	return out
}

// CoverTime runs the walk until every vertex has been visited at least once
// and returns the number of steps taken, or -1 if maxSteps elapses first.
// For k ≥ 2 on connected non-trivial graphs the cover time is
// polylogarithmic (Berenbrink–Giakkoupis–Kling; refs [3], [6], [9] in the
// paper).
func (w *Walk) CoverTime(maxSteps int) int {
	visited := w.occupied.Clone()
	if visited.All() {
		return 0
	}
	for s := 1; s <= maxSteps; s++ {
		w.Step()
		visited.UnionWith(w.occupied)
		if visited.All() {
			return s
		}
	}
	return -1
}
