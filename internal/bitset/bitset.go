// Package bitset implements a fixed-length packed bit vector.
//
// Opinion configurations and COBRA-walk occupancy sets are vectors of n
// booleans that are read and written in tight loops and counted every round.
// Packing them 64 per machine word keeps the working set of an n = 2^17
// simulation inside L2 cache and lets counting run at one POPCNT per 64
// vertices.
package bitset

import "math/bits"

// Set is a fixed-length bit vector. The zero value is an empty set of
// length 0; use New to create one with a given length.
type Set struct {
	words []uint64
	n     int
}

// New returns a Set of n bits, all zero. It panics if n is negative.
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative length")
	}
	return &Set{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of bits in the set.
func (s *Set) Len() int { return s.n }

// Get reports whether bit i is set. It panics if i is out of range.
func (s *Set) Get(i int) bool {
	if i < 0 || i >= s.n {
		panic("bitset: index out of range")
	}
	return s.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i to 1. It panics if i is out of range.
func (s *Set) Set(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: index out of range")
	}
	s.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear sets bit i to 0. It panics if i is out of range.
func (s *Set) Clear(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: index out of range")
	}
	s.words[i>>6] &^= 1 << (uint(i) & 63)
}

// SetTo sets bit i to the given value.
func (s *Set) SetTo(i int, v bool) {
	if v {
		s.Set(i)
	} else {
		s.Clear(i)
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// All reports whether every bit is set. An empty set vacuously satisfies All.
func (s *Set) All() bool { return s.Count() == s.n }

// Reset clears every bit.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Fill sets every bit.
func (s *Set) Fill() {
	for i := range s.words {
		s.words[i] = ^uint64(0)
	}
	s.trim()
}

// SetFirstN sets bits [0, k) and clears bits [k, n), word-at-a-time. It
// panics if k is out of [0, n]. This is the O(n/64) materialisation path
// for count-only engine states (k blue vertices in canonical prefix
// positions).
func (s *Set) SetFirstN(k int) {
	if k < 0 || k > s.n {
		panic("bitset: SetFirstN count out of range")
	}
	full := k >> 6
	for i := 0; i < full; i++ {
		s.words[i] = ^uint64(0)
	}
	if rem := uint(k) & 63; rem != 0 {
		s.words[full] = (1 << rem) - 1
		full++
	}
	for i := full; i < len(s.words); i++ {
		s.words[i] = 0
	}
}

// SetWord overwrites the wi-th 64-bit word (bits [64·wi, 64·wi+64)) in one
// store, masking any bits beyond the set's length so the canonical
// trailing-zero invariant survives. It panics if wi is out of range. This
// is the bulk-write path for engines that assemble 64 vertex updates into
// one word before touching shared memory.
func (s *Set) SetWord(wi int, w uint64) {
	if wi < 0 || wi >= len(s.words) {
		panic("bitset: SetWord index out of range")
	}
	if wi == len(s.words)-1 {
		if rem := uint(s.n) & 63; rem != 0 {
			w &= (1 << rem) - 1
		}
	}
	s.words[wi] = w
}

// trim zeroes the unused high bits of the last word so Count and Equal see
// a canonical representation.
func (s *Set) trim() {
	if rem := uint(s.n) & 63; rem != 0 && len(s.words) > 0 {
		s.words[len(s.words)-1] &= (1 << rem) - 1
	}
}

// Clone returns a deep copy of s.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// Equal reports whether s and o contain exactly the same bits. Sets of
// different lengths are never equal.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// UnionWith sets s to s ∪ o. Lengths must match.
func (s *Set) UnionWith(o *Set) {
	if s.n != o.n {
		panic("bitset: UnionWith length mismatch")
	}
	for i := range s.words {
		s.words[i] |= o.words[i]
	}
}

// FlipAll inverts every bit.
func (s *Set) FlipAll() {
	for i := range s.words {
		s.words[i] = ^s.words[i]
	}
	s.trim()
}

// ForEach calls fn for the index of every set bit, in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &= w - 1
		}
	}
}

// Words exposes the underlying word slice for bulk operations such as
// SIMD-friendly counting in callers. A caller that writes it must leave
// the bits past Len zero, or Count and Equal break.
func (s *Set) Words() []uint64 { return s.words }
