package dynamics

import (
	"math/bits"

	"repro/internal/rng"
)

// sampleBufWords is the refill size: 64+ uniforms drawn per refill keeps
// the xoshiro state in registers for whole blocks (see rng.Source.Fill)
// while staying a few cache lines of working set per process.
const sampleBufWords = 256

// sampleBuf fronts a process's RNG with a block-refilled word buffer. It
// consumes source words in exactly the order scalar Uint64 calls would —
// leftover words persist across rounds, never discarded — so routing the
// engine's draws through the buffer leaves every trajectory byte-identical
// to the unbuffered engine; only the call pattern changes. The bounded
// reduction is Lemire's multiply-shift rejection, mirroring
// rng.Source.Uint64n word for word.
type sampleBuf struct {
	src *rng.Source
	pos int
	buf [sampleBufWords]uint64
}

// next returns the following source word, refilling the buffer in bulk
// when drained.
func (b *sampleBuf) next() uint64 {
	if b.pos == sampleBufWords {
		b.src.Fill(b.buf[:])
		b.pos = 0
	}
	v := b.buf[b.pos]
	b.pos++
	return v
}

// intn returns a uniform integer in [0, n) by Lemire reduction over
// buffered words. n must be positive; the engine guards degree ≥ 1.
func (b *sampleBuf) intn(n int) int {
	u := uint64(n)
	hi, lo := bits.Mul64(b.next(), u)
	if lo < u {
		thresh := -u % u
		for lo < thresh {
			hi, lo = bits.Mul64(b.next(), u)
		}
	}
	return int(hi)
}

// bernoulliHalf consumes one buffered word and reports a fair coin,
// computing exactly src.Bernoulli(0.5) (Float64() < 0.5 ⇔ the 53-bit
// mantissa is below 2⁵²).
func (b *sampleBuf) bernoulliHalf() bool {
	return b.next()>>11 < 1<<52
}
