package rng

import "math/bits"

// wordsLen is the refill size of Words: 256 words drawn per refill keep
// the xoshiro state in registers for whole blocks (see Source.Fill) while
// staying a few cache lines of working set per process.
const wordsLen = 256

// Words fronts a Source with a block-refilled word buffer. It hands out
// the source's words in exactly the order successive Uint64 calls would,
// and words left in the buffer wait for the next draw, never discarded.
// So a process drawing every sample through one Words draws the same
// stream as one drawing straight from the Source; only the call pattern
// changes. Its bounded draws mirror Source.Uint64n word for word, and a
// BinomialTable draws from it exactly what Source.Binomial draws.
//
// TryIntn and BinomialTable.TrySample are the inlinable fast paths: each
// either decides its draw from the next buffered word and consumes it, or
// reports false and consumes nothing, so the caller's one slow call
// (Intn, BinomialTable.Sample) redraws from that same word.
type Words struct {
	src *Source
	pos int
	buf [wordsLen]uint64
}

// NewWords returns a buffer drawing from src. The first draw refills.
func NewWords(src *Source) *Words {
	return &Words{src: src, pos: wordsLen}
}

// Uint64 returns the next word of the stream.
func (w *Words) Uint64() uint64 {
	if w.pos >= wordsLen {
		w.refill()
	}
	v := w.buf[w.pos]
	w.pos++
	return v
}

// refill draws the next block; kept out of line so Uint64 inlines.
//
//go:noinline
func (w *Words) refill() {
	w.src.Fill(w.buf[:])
	w.pos = 0
}

// TryIntn is Intn's inlinable fast path: when the next buffered word is
// accepted by Lemire's reduction without the rejection test (lo ≥ n), it
// consumes that word and returns its draw and true. Otherwise, or when the
// buffer is drained, it consumes nothing and returns false. n must be
// positive.
func (w *Words) TryIntn(n int) (int, bool) {
	if uint(w.pos) >= wordsLen {
		return 0, false
	}
	hi, lo := bits.Mul64(w.buf[w.pos], uint64(n))
	if lo < uint64(n) {
		return 0, false
	}
	w.pos++
	return int(hi), true
}

// Intn returns a uniform integer in [0, n), drawing exactly the words
// Source.Intn draws. n must be positive.
func (w *Words) Intn(n int) int {
	u := uint64(n)
	hi, lo := bits.Mul64(w.Uint64(), u)
	if lo < u {
		thresh := -u % u
		for lo < thresh {
			hi, lo = bits.Mul64(w.Uint64(), u)
		}
	}
	return int(hi)
}

// Half returns a fair coin from one word, exactly Source.Bernoulli(0.5):
// Float64() < 0.5 iff the 53-bit mantissa is below 2⁵².
func (w *Words) Half() bool {
	return w.Uint64()>>11 < 1<<52
}

// Peek returns the word d draws ahead (d = 0 is the next one) without
// consuming anything, and false when that word is not yet in the buffer.
// It never refills, so peeking cannot move the stream.
func (w *Words) Peek(d int) (uint64, bool) {
	if i := uint(w.pos + d); i < wordsLen {
		return w.buf[i], true
	}
	return 0, false
}
