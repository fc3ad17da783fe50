package dynamics

import (
	"fmt"
	"math/bits"

	"repro/internal/opinion"
	"repro/internal/rng"
)

// AsyncProcess is the asynchronous (sequential-activation) variant of
// Best-of-k: at each tick a single uniformly random vertex wakes up,
// samples k neighbours and updates. n ticks form one "sweep", the natural
// unit comparable to one synchronous round; Step runs one sweep, so Run
// drives this process exactly like the synchronous one.
//
// The paper analyses the synchronous dynamic; the asynchronous variant is
// provided as an extension so that the examples can contrast the two
// activation models on the same workloads.
type AsyncProcess struct {
	g      Topology
	cfg    *opinion.Config
	kern   kernel
	ahead  int // words to peek for the row to prefetch; see Step
	sweeps int
	blues  int
}

// prefetchTicks is how many ticks ahead Step prefetches the woken
// vertex's row: far enough for the row to arrive, near enough that the
// peeked word is still in the buffer.
const prefetchTicks = 2

// NewAsync returns an asynchronous process. The initial configuration is
// copied.
func NewAsync(g Topology, rule Rule, init *opinion.Config, seed uint64) (*AsyncProcess, error) {
	if err := rule.Validate(); err != nil {
		return nil, err
	}
	if rule.WithoutReplacement {
		return nil, fmt.Errorf("dynamics: the async process does not implement without-replacement sampling")
	}
	if g.N() != init.N() {
		return nil, fmt.Errorf("dynamics: graph has %d vertices, configuration has %d", g.N(), init.N())
	}
	if g.N() == 0 {
		return nil, fmt.Errorf("dynamics: async process requires a non-empty graph")
	}
	if g.MinDegree() == 0 {
		return nil, fmt.Errorf("dynamics: graph %s has an isolated vertex", g.Name())
	}
	cfg := init.Clone()
	// A tick draws the vertex, its k samples and, for a noisy rule, the
	// flips: near consensus one of the two flip counts is 0 and draws no
	// word, and the other usually draws one.
	perTick := 1 + rule.K
	if rule.Noise > 0 {
		perTick++
	}
	return &AsyncProcess{
		g:     g,
		cfg:   cfg,
		kern:  newKernel(g, rule, rng.New(seed)),
		ahead: prefetchTicks * perTick,
		blues: cfg.Blues(),
	}, nil
}

// Round returns the number of completed sweeps.
func (a *AsyncProcess) Round() int { return a.sweeps }

// Blues returns the current number of Blue vertices (tracked incrementally,
// so the read is O(1)).
func (a *AsyncProcess) Blues() int { return a.blues }

// Consensus reports whether every vertex holds one opinion.
func (a *AsyncProcess) Consensus() bool { return a.blues == 0 || a.blues == a.g.N() }

// Majority returns the majority colour (ties go to Red).
func (a *AsyncProcess) Majority() opinion.Colour { return majority(a.blues, a.g.N()) }

// Step runs one sweep: n ticks, cut short the moment consensus is reached,
// since a run stops there. Each tick wakes one uniformly random vertex and
// applies the vertex kernel of the synchronous rounds to it in place.
//
// The sampled neighbours' rows are random in memory, so on a CSR topology
// each tick first prefetches the row of the vertex the tick prefetchTicks
// later is likely to wake: the buffered word that tick would draw its
// vertex from, if every tick between draws its usual number of words,
// mapped through the same multiply-shift as the vertex draw. The guess
// only fetches cache lines; it reads nothing the kernel uses and draws no
// word, so a wrong guess, or a skip when the word is not yet buffered,
// costs a cache line and never moves a trajectory.
func (a *AsyncProcess) Step() {
	n := a.g.N()
	words := a.cfg.BlueSet().Words()
	kn := &a.kern
	w := kn.w
	csr := kn.rows.kind == rowsCSR
	for i := 0; i < n && a.blues != 0 && a.blues != n; i++ {
		if csr {
			if u, ok := w.Peek(a.ahead); ok {
				hi, _ := bits.Mul64(u, uint64(n))
				base, end := kn.rows.Row(int(hi))
				prefetchRow(&kn.rows.adj[base], &kn.rows.adj[end-1])
			}
		}
		v, ok := w.TryIntn(n)
		if !ok {
			v = w.Intn(n)
		}
		if bit := kn.update(words, v); bit != words[v>>6]>>(uint(v)&63)&1 {
			words[v>>6] ^= 1 << (uint(v) & 63)
			a.blues += 2*int(bit) - 1
		}
	}
	a.sweeps++
}
