// Package opinion represents two-party opinion configurations.
//
// Following the paper's convention, the two opinions are Red (the initial
// majority under P(blue) = 1/2 − δ with δ > 0) and Blue (the initial
// minority). Internally Blue is the value 1 and Red the value 0, matching
// Section 3 of the paper, so "counting blues" is a popcount.
package opinion

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/rng"
)

// Colour is a vertex opinion.
type Colour uint8

const (
	// Red is the paper's initial-majority opinion (numeric value 0).
	Red Colour = 0
	// Blue is the paper's initial-minority opinion (numeric value 1).
	Blue Colour = 1
)

// String returns "R" or "B".
func (c Colour) String() string {
	if c == Blue {
		return "B"
	}
	return "R"
}

// Config is an assignment of a Colour to each vertex 0..N-1, stored as a
// bitset of Blue positions.
type Config struct {
	blue *bitset.Set
}

// NewConfig returns an all-Red configuration on n vertices.
func NewConfig(n int) *Config {
	return &Config{blue: bitset.New(n)}
}

// RandomConfig returns a configuration where each vertex is independently
// Blue with probability pBlue, otherwise Red — the paper's initial
// condition with pBlue = 1/2 − δ. Vertex v is Blue iff the v-th of n
// src.Bernoulli(pBlue) draws is true; rng.Source.FillBernoulli makes those
// draws 64 at a time from exactly the same words.
func RandomConfig(n int, pBlue float64, src *rng.Source) *Config {
	c := NewConfig(n)
	src.FillBernoulli(c.blue.Words(), n, pBlue)
	return c
}

// N returns the number of vertices.
func (c *Config) N() int { return c.blue.Len() }

// Get returns the colour of vertex v.
func (c *Config) Get(v int) Colour {
	if c.blue.Get(v) {
		return Blue
	}
	return Red
}

// Set assigns colour col to vertex v.
func (c *Config) Set(v int, col Colour) {
	c.blue.SetTo(v, col == Blue)
}

// Blues returns the number of Blue vertices.
func (c *Config) Blues() int { return c.blue.Count() }

// BlueFraction returns Blues/N, or 0 for an empty configuration.
func (c *Config) BlueFraction() float64 {
	if c.N() == 0 {
		return 0
	}
	return float64(c.Blues()) / float64(c.N())
}

// Majority returns the majority colour; ties go to Red, matching the
// paper's convention that Red is the (weak) majority at δ = 0.
func (c *Config) Majority() Colour {
	if 2*c.Blues() > c.N() {
		return Blue
	}
	return Red
}

// IsConsensus reports whether every vertex holds the same opinion, and that
// opinion. The empty configuration counts as Red consensus.
func (c *Config) IsConsensus() (Colour, bool) {
	b := c.Blues()
	switch {
	case b == 0:
		return Red, true
	case b == c.N():
		return Blue, true
	default:
		return Red, false
	}
}

// Clone returns a deep copy.
func (c *Config) Clone() *Config { return &Config{blue: c.blue.Clone()} }

// Equal reports whether two configurations agree on every vertex.
func (c *Config) Equal(o *Config) bool { return c.blue.Equal(o.blue) }

// FillBlue sets every vertex to Blue.
func (c *Config) FillBlue() { c.blue.Fill() }

// SetBluePrefix makes vertices [0, b) Blue and the rest Red, word-at-a-
// time. On exchangeable topologies (the complete graph) this is the
// canonical configuration with blue count b; the mean-field engine uses it
// to materialise count-only state on demand.
func (c *Config) SetBluePrefix(b int) { c.blue.SetFirstN(b) }

// BlueSet exposes the underlying Blue bitset (read-only use).
func (c *Config) BlueSet() *bitset.Set { return c.blue }

// String renders small configurations as a string of R/B runes; larger ones
// as a count summary.
func (c *Config) String() string {
	n := c.N()
	if n <= 64 {
		buf := make([]byte, n)
		for v := 0; v < n; v++ {
			buf[v] = c.Get(v).String()[0]
		}
		return string(buf)
	}
	return fmt.Sprintf("config(n=%d,blue=%d)", n, c.Blues())
}

// FromColours builds a configuration from an explicit colour slice.
func FromColours(cols []Colour) *Config {
	c := NewConfig(len(cols))
	for v, col := range cols {
		c.Set(v, col)
	}
	return c
}
