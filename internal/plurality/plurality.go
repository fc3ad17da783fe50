// Package plurality extends the two-party Best-of-Three dynamic to q ≥ 2
// opinions — the plurality-consensus setting of Becchetti, Clementi,
// Natale, Pasquale, Silvestri and Trevisan (SPAA 2014), reference [2] of
// the paper. Every vertex samples three random neighbours; if at least two
// share an opinion the vertex adopts it, otherwise (three distinct
// opinions) a tie rule applies.
//
// The paper's Theorem 1 is the q = 2 case on dense graphs; this package
// lets the experiment suite reproduce the q-opinion claims the paper cites:
// the initial plurality wins w.h.p. given enough initial advantage, with
// consensus time growing with q.
package plurality

import (
	"fmt"

	"repro/internal/dynamics"
	"repro/internal/opinion"
	"repro/internal/rng"
)

// TieRule decides the adopted opinion when the three samples are pairwise
// distinct.
type TieRule uint8

const (
	// TieKeep keeps the current opinion (rule (i) of the paper's intro).
	TieKeep TieRule = iota
	// TieRandomSample adopts one of the three sampled opinions uniformly
	// (rule (ii); the rule analysed in [2]).
	TieRandomSample
)

// Config is an assignment of one of q opinions to each vertex.
type Config struct {
	opinions []uint8
	q        int
}

// NewConfig returns an all-zeros configuration with q possible opinions
// (2 ≤ q ≤ 256).
func NewConfig(n, q int) *Config {
	if q < 2 || q > 256 {
		panic("plurality: q must be in [2, 256]")
	}
	if n < 0 {
		panic("plurality: negative n")
	}
	return &Config{opinions: make([]uint8, n), q: q}
}

// N returns the number of vertices; Q the number of opinions.
func (c *Config) N() int { return len(c.opinions) }

// Q returns the opinion alphabet size.
func (c *Config) Q() int { return c.q }

// Counts returns the per-opinion vertex counts.
func (c *Config) Counts() []int {
	counts := make([]int, c.q)
	for _, op := range c.opinions {
		counts[op]++
	}
	return counts
}

// Plurality returns the most frequent opinion (lowest index on ties) and
// its count.
func (c *Config) Plurality() (op, count int) {
	counts := c.Counts()
	for i, cnt := range counts {
		if cnt > count {
			op, count = i, cnt
		}
	}
	return op, count
}

// IsConsensus reports whether all vertices share one opinion, and which.
// An empty configuration counts as consensus on opinion 0.
func (c *Config) IsConsensus() (int, bool) {
	if len(c.opinions) == 0 {
		return 0, true
	}
	first := c.opinions[0]
	for _, op := range c.opinions[1:] {
		if op != first {
			return int(first), false
		}
	}
	return int(first), true
}

// Clone returns a deep copy.
func (c *Config) Clone() *Config {
	out := &Config{opinions: make([]uint8, len(c.opinions)), q: c.q}
	copy(out.opinions, c.opinions)
	return out
}

// RandomBiasedConfig draws each vertex's opinion i.i.d.: opinion 0 with
// probability share0, the remaining mass split evenly over opinions
// 1..q−1. share0 = 1/q is the balanced case; share0 > 1/q gives opinion 0
// the initial plurality (the analogue of the paper's 1/2 + δ).
func RandomBiasedConfig(n, q int, share0 float64, src *rng.Source) *Config {
	if !(share0 >= 0 && share0 <= 1) {
		panic("plurality: share0 outside [0,1]")
	}
	c := NewConfig(n, q)
	rest := (1 - share0) / float64(q-1)
	for v := 0; v < n; v++ {
		u := src.Float64()
		if u < share0 {
			continue // opinion 0
		}
		op := 1 + int((u-share0)/rest)
		if op >= q {
			op = q - 1
		}
		c.opinions[v] = uint8(op)
	}
	return c
}

// Process runs the q-opinion Best-of-Three dynamic. Like the two-party
// engine it double-buffers the configuration, reads the topology's rows
// resolved once (dynamics.Rows), and draws every sample from one RNG
// stream derived from the seed through a refill buffer, so a trajectory
// is a function of the seed alone.
type Process struct {
	rows  dynamics.Rows
	tie   TieRule
	cur   *Config
	next  *Config
	w     *rng.Words
	round int
}

// Options configures a Process.
type Options struct {
	// Seed drives all sampling; equal seeds give identical trajectories.
	Seed uint64
	// Tie decides the adopted opinion when the three samples differ.
	Tie TieRule
}

// New returns a Process evolving init on g. The initial configuration is
// copied.
func New(g dynamics.Topology, init *Config, opt Options) (*Process, error) {
	if g.N() != init.N() {
		return nil, fmt.Errorf("plurality: graph has %d vertices, configuration has %d", g.N(), init.N())
	}
	if g.N() > 0 && g.MinDegree() == 0 {
		return nil, fmt.Errorf("plurality: graph %s has an isolated vertex", g.Name())
	}
	return &Process{
		rows: dynamics.ResolveRows(g),
		tie:  opt.Tie,
		cur:  init.Clone(),
		next: NewConfig(g.N(), init.Q()),
		w:    rng.NewWords(rng.NewFrom(opt.Seed, 0)),
	}, nil
}

// Round returns the number of completed rounds.
func (p *Process) Round() int { return p.round }

// Blues returns the number of vertices not holding opinion 0: the
// two-party blue count when opinion 0 plays Red (exactly that count at
// q = 2), so dynamics.Run drives this process like the two-party ones.
func (p *Process) Blues() int {
	n := 0
	for _, op := range p.cur.opinions {
		if op != 0 {
			n++
		}
	}
	return n
}

// Consensus reports whether every vertex holds one opinion.
func (p *Process) Consensus() bool {
	_, ok := p.cur.IsConsensus()
	return ok
}

// Majority reports Red exactly when opinion 0 is the consensus or current
// plurality opinion (lowest index on ties), Blue otherwise.
func (p *Process) Majority() opinion.Colour {
	if op, _ := p.cur.Plurality(); op == 0 {
		return opinion.Red
	}
	return opinion.Blue
}

// Step performs one synchronous round: every vertex samples from the
// pre-round configuration, in vertex order from the one stream: three
// neighbour indices, then, on a three-way tie under TieRandomSample, the
// sample to adopt.
func (p *Process) Step() {
	w, ops := p.w, p.cur.opinions
	for v := range ops {
		base, end := p.rows.Row(v)
		var s [3]uint8
		for i := range s {
			idx, ok := w.TryIntn(end - base)
			if !ok {
				idx = w.Intn(end - base)
			}
			s[i] = ops[p.rows.Neighbor(v, base, idx)]
		}
		a, b, c := s[0], s[1], s[2]
		var adopt uint8
		switch {
		case a == b || a == c:
			adopt = a
		case b == c:
			adopt = b
		case p.tie == TieKeep: // three distinct opinions
			adopt = ops[v]
		default:
			adopt = s[w.Intn(3)]
		}
		p.next.opinions[v] = adopt
	}
	p.cur, p.next = p.next, p.cur
	p.round++
}
