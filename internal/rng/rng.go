// Package rng provides fast, deterministic, splittable pseudo-random number
// generation for the voting-dynamics simulators in this repository.
//
// The Best-of-Three dynamic draws three uniform random neighbours per vertex
// per round; a simulation of n = 2^17 vertices for a few dozen rounds
// therefore consumes tens of millions of uniform variates. The generator
// here is xoshiro256**, seeded through splitmix64, which passes standard
// statistical batteries, has a 2^256−1 period, and generates a 64-bit word
// in a handful of instructions with no locking. Independent streams are
// derived by mixing a seed and a stream index through splitmix64 (NewFrom,
// ChildSeed), which guarantees distinct, well-separated initial states.
//
// All generators in this package are deterministic functions of their seed:
// every experiment in the repository is exactly reproducible.
package rng

import (
	"math"
	"math/bits"
)

// Source is a xoshiro256** pseudo-random generator. The zero value is not a
// valid generator; use New or NewFrom.
type Source struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances the state x and returns the next splitmix64 output.
// It is used only for seeding: any 64-bit seed, including 0, expands into a
// full-entropy 256-bit xoshiro state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from the given 64-bit seed. Equal seeds
// yield identical streams.
func New(seed uint64) *Source {
	var s Source
	s.Reseed(seed)
	return &s
}

// NewFrom returns a generator whose state is derived from both a seed and a
// stream index. Distinct (seed, stream) pairs yield independent streams;
// this is how per-worker and per-trial generators are created.
func NewFrom(seed, stream uint64) *Source {
	x := seed
	_ = splitmix64(&x)
	x ^= stream * 0xd1342543de82ef95 // odd multiplier spreads stream indices
	var s Source
	s.s0 = splitmix64(&x)
	s.s1 = splitmix64(&x)
	s.s2 = splitmix64(&x)
	s.s3 = splitmix64(&x)
	s.normalize()
	return &s
}

// Reseed resets the generator state as if it had been created by New(seed).
func (s *Source) Reseed(seed uint64) {
	x := seed
	s.s0 = splitmix64(&x)
	s.s1 = splitmix64(&x)
	s.s2 = splitmix64(&x)
	s.s3 = splitmix64(&x)
	s.normalize()
}

// normalize guards against the all-zero state, which is the single fixed
// point of xoshiro256**. It cannot occur from splitmix64 seeding in
// practice, but the guard makes the invariant local and checkable.
func (s *Source) normalize() {
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 0x9e3779b97f4a7c15
	}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := bits.RotateLeft64(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = bits.RotateLeft64(s.s3, 45)
	return result
}

// Fill overwrites dst with len(dst) successive Uint64 outputs, exactly as
// if Uint64 had been called once per element. Keeping the state in locals
// for the whole block lets the compiler keep it in registers, which is the
// refill path of the dynamics engine's sample buffer.
func (s *Source) Fill(dst []uint64) {
	s0, s1, s2, s3 := s.s0, s.s1, s.s2, s.s3
	for i := range dst {
		dst[i] = bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
	}
	s.s0, s.s1, s.s2, s.s3 = s0, s1, s2, s3
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
// It uses Lemire's multiply-shift rejection method, which needs slightly
// more than one multiplication per draw on average and no division in the
// common case.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	hi, lo := bits.Mul64(s.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(s.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p. Probabilities outside [0, 1]
// are clamped.
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// FillBernoulli writes n successive Bernoulli(p) draws into dst as packed
// bits: draw i is bit i%64 of dst[i/64], and the bits of the last word
// past n are cleared. It draws exactly the words that n Bernoulli(p) calls
// draw, in the same order, with the same outcomes: none for p ≤ 0 (all
// zeros) or p ≥ 1 (all ones), and one word per draw otherwise. It panics
// if n < 0 or len(dst) < ⌈n/64⌉.
func (s *Source) FillBernoulli(dst []uint64, n int, p float64) {
	if n < 0 {
		panic("rng: FillBernoulli with n < 0")
	}
	dst = dst[:(n+63)/64]
	switch {
	case p <= 0:
		clear(dst)
		return
	case p >= 1:
		for i := range dst {
			dst[i] = ^uint64(0)
		}
		if rem := uint(n) & 63; rem != 0 {
			dst[len(dst)-1] = 1<<rem - 1
		}
		return
	}
	thr := bernoulliThreshold(p)
	var buf [64]uint64
	for wi := range dst {
		block := buf[:min(64, n-64*wi)]
		s.Fill(block)
		var w uint64
		for b, u := range block {
			// The difference wraps, setting its top bit, iff u>>11 < thr:
			// no branch for the near-½ draws to mispredict.
			w |= (u>>11 - thr) >> 63 << (uint(b) & 63)
		}
		dst[wi] = w
	}
}

// bernoulliThreshold returns the number of 53-bit words u53 with
// float64(u53)/2⁵³ < p, for p < 1, so that Float64() < p ⇔ u>>11 < it.
// It is ⌈p·2⁵³⌉: the word and its division by 2⁵³ are exact, so is the
// power-of-two scale of p, and an integer lies below x iff it lies below
// ⌈x⌉. A NaN p gets 0, as Float64() < NaN is false; converting it would
// be implementation-defined.
func bernoulliThreshold(p float64) uint64 {
	if !(p > 0) {
		return 0
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Perm returns a uniformly random permutation of [0, n) as a fresh slice.
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.ShuffleInts(p)
	return p
}

// ShuffleInts permutes p uniformly at random in place (Fisher–Yates).
func (s *Source) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// Shuffle permutes n elements in place using the provided swap function.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// ChildSeed deterministically derives a 64-bit seed from a parent seed and
// a path of labels, by folding each label into a splitmix64 walk. Distinct
// (seed, labels...) paths yield well-separated seeds, so a service can hand
// every job a seed derived from (serverSeed, jobIndex) and every trial a
// seed derived from (jobSeed, trialIndex) while keeping the whole tree
// reproducible from the root seed alone. ChildSeed(s) with no labels is a
// plain one-step mix of s.
func ChildSeed(seed uint64, labels ...uint64) uint64 {
	x := seed
	out := splitmix64(&x)
	for _, l := range labels {
		x ^= l * 0xd1342543de82ef95 // odd multiplier spreads small labels
		out = splitmix64(&x)
	}
	return out
}
