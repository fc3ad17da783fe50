package dynamics

import (
	"repro/internal/graph"
	"repro/internal/rng"
)

// rowKind says how Rows finds a vertex's neighbours.
type rowKind uint8

const (
	rowsCSR      rowKind = iota // *graph.Graph: its CSR arrays
	rowsKn                      // graph.Kn: neighbour i of v is i + (i ≥ v)
	rowsTopology                // any other Topology: its Degree and Neighbor
)

// Rows is a topology's neighbour rows, resolved once when a process is
// built instead of once per vertex: the CSR arrays of a *graph.Graph, the
// closed form of the virtual complete graph graph.Kn, or, for any other
// Topology, its own Degree and Neighbor calls. The kind is fixed per
// process, so the branches on it predict. Row and Neighbor inline, with
// the CSR case in line and the others behind one call.
type Rows struct {
	kind     rowKind
	off, adj []int32  // rowsCSR
	knDeg    int      // rowsKn: n − 1
	g        Topology // rowsTopology
}

// ResolveRows resolves g's rows.
func ResolveRows(g Topology) Rows {
	switch t := g.(type) {
	case *graph.Graph:
		off, adj := t.CSR()
		return Rows{kind: rowsCSR, off: off, adj: adj}
	case graph.Kn:
		return Rows{kind: rowsKn, knDeg: int(t) - 1}
	}
	return Rows{kind: rowsTopology, g: g}
}

// Row returns where v's row starts and ends; its length is v's degree.
func (r *Rows) Row(v int) (base, end int) {
	if r.kind == rowsCSR {
		return int(r.off[v]), int(r.off[v+1])
	}
	return 0, r.virtualDegree(v)
}

// Neighbor returns neighbour i of v, whose row starts at base.
func (r *Rows) Neighbor(v, base, i int) int {
	if r.kind == rowsCSR {
		return int(r.adj[base+i])
	}
	return r.virtualNeighbor(v, i)
}

// virtualDegree is Row's degree for rows with no CSR arrays. It and
// virtualNeighbor stay out of line so that Row and Neighbor inline.
//
//go:noinline
func (r *Rows) virtualDegree(v int) int {
	if r.kind == rowsKn {
		return r.knDeg
	}
	return r.g.Degree(v)
}

//go:noinline
func (r *Rows) virtualNeighbor(v, i int) int {
	if r.kind == rowsKn {
		return i + int(uint(v-i-1)>>63) // i below v, i+1 from v on
	}
	return r.g.Neighbor(v, i)
}

// kernel is the general engine's one Best-of-k vertex update. The
// noise-free round, the noisy round and the async sweep all run it, and
// it draws every neighbour index, noise flip and tie coin from its
// process's one buffered stream, in the order the scalar reference draws
// them (refStep in the tests): k neighbour indices (distinct ones, by a
// partial Floyd sample, when the rule asks and the degree allows), then
// the flips of the red samples, then those of the blue ones, then, on an
// even-k tie under TieRandom, one coin.
type kernel struct {
	rows      Rows
	k         int
	tieRandom bool
	woRepl    bool
	w         *rng.Words
	flips     *rng.BinomialTable // nil without noise
}

func newKernel(g Topology, rule Rule, src *rng.Source) kernel {
	kn := kernel{
		rows:      ResolveRows(g),
		k:         rule.K,
		tieRandom: rule.Tie == TieRandom,
		woRepl:    rule.WithoutReplacement,
		w:         rng.NewWords(src),
	}
	if rule.Noise > 0 {
		kn.flips = rng.NewBinomialTable(rule.Noise, rule.K)
	}
	return kn
}

// update returns v's new opinion as a bit (1 = Blue), given the packed
// blue words cur of the configuration v samples from. Every draw takes
// its inlined fast path first (TryIntn, TrySample) and makes its one slow
// call only when that declines, from the same word.
func (kn *kernel) update(cur []uint64, v int) uint64 {
	w, k := kn.w, kn.k
	base, end := kn.rows.Row(v)
	deg := end - base
	blues := 0
	if kn.woRepl && deg >= k {
		var chosenArr [8]int
		chosen := chosenArr[:0]
		if k > len(chosenArr) {
			chosen = make([]int, 0, k)
		}
		for i := 0; i < k; i++ {
		retry:
			idx := w.Intn(deg)
			for _, c := range chosen {
				if c == idx {
					goto retry
				}
			}
			chosen = append(chosen, idx)
			u := kn.rows.Neighbor(v, base, idx)
			blues += int(cur[u>>6] >> (uint(u) & 63) & 1)
		}
	} else {
		for i := 0; i < k; i++ {
			idx, ok := w.TryIntn(deg)
			if !ok {
				idx = w.Intn(deg)
			}
			u := kn.rows.Neighbor(v, base, idx)
			blues += int(cur[u>>6] >> (uint(u) & 63) & 1)
		}
	}
	if f := kn.flips; f != nil {
		// Each observed opinion flips independently: Bin(k−blues, noise)
		// red samples turn blue, then Bin(blues, noise) blue ones red.
		up, ok := f.TrySample(w, k-blues)
		if !ok {
			up = f.Sample(w, k-blues)
		}
		down, ok := f.TrySample(w, blues)
		if !ok {
			down = f.Sample(w, blues)
		}
		blues += up - down
	}
	// k − 2·blues is negative exactly when Blue holds the majority, so its
	// sign bit is the new opinion, with no branch to mispredict on mixed
	// states. Only an even k can tie.
	bit := uint64(k-2*blues) >> 63
	if 2*blues == k {
		if !kn.tieRandom {
			bit = cur[v>>6] >> (uint(v) & 63) & 1
		} else if w.Half() {
			bit = 1
		}
	}
	return bit
}
