// Package votingdag implements the random voting-DAG of Section 2 of the
// paper: the time-reversed query structure that determines the opinion
// ξ_T(v₀) of a root vertex from the i.i.d. opinions at time 0.
//
// Level T holds the root (v₀, T); each node at level t+1 records the three
// neighbours (sampled with replacement) whose level-t opinions determine
// its colour; nodes at the same level that refer to the same graph vertex
// coalesce, which is what makes the object a DAG rather than a ternary
// tree. The package also implements the Sprinkling process of Section 3
// (re-routing colliding edges to artificial always-Blue leaves, yielding a
// collision-free — hence independent — lower structure) and the ternary-
// tree machinery of Section 4 (Lemmas 5 and 6).
package votingdag

import (
	"fmt"

	"repro/internal/opinion"
	"repro/internal/rng"
)

// Topology is the neighbour-query interface the builder needs; both
// *graph.Graph and graph.Kn satisfy it.
type Topology interface {
	N() int
	Degree(v int) int
	Neighbor(v, i int) int
}

// NoVertex marks an artificial node's vertex field.
const NoVertex int32 = -1

// Node is one vertex (v, t) of a voting-DAG. Nodes at level t > 0 that are
// not artificial have exactly three child slots pointing into level t−1;
// the slots form a multiset (with-replacement sampling can repeat a child).
type Node struct {
	// V is the graph vertex this node queries, or NoVertex for an
	// artificial node introduced by the Sprinkling process.
	V int32
	// Children are indices into the level below. Meaningless for level-0
	// nodes and artificial nodes (out-degree 0).
	Children [3]int32
	// CollisionSlot marks, per child slot, whether that reveal hit a
	// level-(t−1) vertex that had already been revealed when the builder
	// processed this level left to right — the paper's collision events.
	CollisionSlot [3]bool
	// Artificial marks a sprinkled node whose colour is deterministically
	// Blue and whose out-degree is zero.
	Artificial bool
}

// DAG is a realised voting-DAG of T+1 levels. Levels[0] are the leaves
// (time 0) and Levels[T][0] is the root (v₀, T).
type DAG struct {
	// Levels[t] lists the nodes at level t in reveal order.
	Levels [][]Node
	// Root is the graph vertex of the root node.
	Root int
}

// T returns the height (number of levels minus one).
func (d *DAG) T() int { return len(d.Levels) - 1 }

// LevelSizes returns the number of nodes per level, leaves first.
func (d *DAG) LevelSizes() []int {
	out := make([]int, len(d.Levels))
	for t, lvl := range d.Levels {
		out[t] = len(lvl)
	}
	return out
}

// CollisionLevels reports, for each level t = 1..T, whether revealing the
// children of level-t nodes produced at least one collision. Index 0 is
// always false (leaves reveal nothing).
func (d *DAG) CollisionLevels() []bool {
	out := make([]bool, len(d.Levels))
	for t := 1; t < len(d.Levels); t++ {
		for _, nd := range d.Levels[t] {
			if nd.Artificial {
				continue
			}
			if nd.CollisionSlot[0] || nd.CollisionSlot[1] || nd.CollisionSlot[2] {
				out[t] = true
				break
			}
		}
	}
	return out
}

// CollisionLevelCount returns C, the number of levels involving at least
// one collision (the random variable of Lemma 7).
func (d *DAG) CollisionLevelCount() int {
	c := 0
	for _, has := range d.CollisionLevels() {
		if has {
			c++
		}
	}
	return c
}

// Build samples the random voting-DAG H(v₀) of T+1 levels: the trajectory
// of the paper's time-reversed query process (equivalently, per Remark 2, a
// T-step COBRA walk started at root). Nodes within a level coalesce by
// graph vertex; every reveal of an already-revealed vertex is recorded as a
// collision on its child slot.
func Build(g Topology, root, T int, src *rng.Source) *DAG {
	if T < 0 {
		panic("votingdag: negative height")
	}
	if root < 0 || root >= g.N() {
		panic(fmt.Sprintf("votingdag: root %d out of range [0,%d)", root, g.N()))
	}
	d := &DAG{Root: root, Levels: make([][]Node, T+1)}
	d.Levels[T] = []Node{{V: int32(root)}}
	for t := T; t >= 1; t-- {
		lower := make([]Node, 0, 3*len(d.Levels[t]))
		index := make(map[int32]int32, 3*len(d.Levels[t])) // vertex -> node index at level t-1
		for i := range d.Levels[t] {
			nd := &d.Levels[t][i]
			if nd.Artificial {
				continue
			}
			v := int(nd.V)
			deg := g.Degree(v)
			for slot := 0; slot < 3; slot++ {
				w := int32(g.Neighbor(v, src.Intn(deg)))
				if j, seen := index[w]; seen {
					nd.Children[slot] = j
					nd.CollisionSlot[slot] = true
					continue
				}
				j := int32(len(lower))
				index[w] = j
				lower = append(lower, Node{V: w})
				nd.Children[slot] = j
			}
		}
		d.Levels[t-1] = lower
	}
	return d
}

// Colouring is a per-level colour assignment matching a DAG's structure.
type Colouring [][]opinion.Colour

// Colour runs the paper's colouring process: level-0 normal nodes take
// leaf(v); artificial nodes are Blue; every higher node takes the majority
// colour of its three child slots. The returned Colouring is indexed like
// d.Levels.
func (d *DAG) Colour(leaf func(v int) opinion.Colour) Colouring {
	cols := make(Colouring, len(d.Levels))
	for t := range d.Levels {
		cols[t] = make([]opinion.Colour, len(d.Levels[t]))
		for i := range d.Levels[t] {
			nd := &d.Levels[t][i]
			switch {
			case nd.Artificial:
				cols[t][i] = opinion.Blue
			case t == 0:
				cols[t][i] = leaf(int(nd.V))
			default:
				blues := 0
				for _, c := range nd.Children {
					if cols[t-1][c] == opinion.Blue {
						blues++
					}
				}
				if blues >= 2 {
					cols[t][i] = opinion.Blue
				} else {
					cols[t][i] = opinion.Red
				}
			}
		}
	}
	return cols
}

// RootColour returns the colour assigned to the root node.
func (c Colouring) RootColour() opinion.Colour {
	top := c[len(c)-1]
	return top[0]
}

// BlueLeaves returns the number of Blue normal leaves at level 0 under c.
func (d *DAG) BlueLeaves(c Colouring) int {
	blues := 0
	for i, nd := range d.Levels[0] {
		if !nd.Artificial && c[0][i] == opinion.Blue {
			blues++
		}
	}
	return blues
}

// RandomLeafColouring returns a leaf-colour function where every graph
// vertex is independently Blue with probability pBlue — the paper's initial
// condition. Colours are memoised per vertex so coalesced queries agree.
func RandomLeafColouring(pBlue float64, src *rng.Source) func(v int) opinion.Colour {
	memo := make(map[int]opinion.Colour)
	return func(v int) opinion.Colour {
		if c, ok := memo[v]; ok {
			return c
		}
		c := opinion.Red
		if src.Bernoulli(pBlue) {
			c = opinion.Blue
		}
		memo[v] = c
		return c
	}
}

// Sprinkle applies the Sprinkling process of Section 3 to levels 1..tMax of
// d: every collision slot is re-routed to a fresh artificial node at the
// level below, whose colour is deterministically Blue. Levels above tMax
// are left untouched. The result is a new DAG H′ with V(H) ⊆ V(H′) whose
// levels 0..tMax−1 are collision-free, so (conditional on the structure)
// the opinions of its level-t nodes are independent for t ≤ tMax.
//
// Sprinkle copies d; the receiver is not modified.
func (d *DAG) Sprinkle(tMax int) *DAG {
	if tMax > d.T() {
		tMax = d.T()
	}
	s := &DAG{Root: d.Root, Levels: make([][]Node, len(d.Levels))}
	for t := range d.Levels {
		s.Levels[t] = append([]Node(nil), d.Levels[t]...)
	}
	for t := tMax; t >= 1; t-- {
		for i := range s.Levels[t] {
			nd := &s.Levels[t][i]
			if nd.Artificial {
				continue
			}
			for slot := 0; slot < 3; slot++ {
				if !nd.CollisionSlot[slot] {
					continue
				}
				j := int32(len(s.Levels[t-1]))
				s.Levels[t-1] = append(s.Levels[t-1], Node{V: NoVertex, Artificial: true})
				nd.Children[slot] = j
				nd.CollisionSlot[slot] = false
			}
		}
	}
	return s
}

// ArtificialCount returns the number of artificial (sprinkled) nodes.
func (d *DAG) ArtificialCount() int {
	c := 0
	for _, lvl := range d.Levels {
		for _, nd := range lvl {
			if nd.Artificial {
				c++
			}
		}
	}
	return c
}
