package rng

import "math"

// Binomial returns a sample from Bin(n, p). For small n it sums Bernoulli
// trials; for large n it uses the BTRS transformed-rejection sampler of
// Hörmann (1993), which runs in O(1) expected time independent of n. The
// split keeps the small-n path exact and branch-predictable, which is the
// common case when sampling per-vertex collision counts.
func (s *Source) Binomial(n int, p float64) int { return binomial(s, n, p) }

// wordSource is what the binomial samplers draw from: a Source, or Words
// buffered in front of one. Both hand out the same stream, so a sampler
// draws the same values from either.
type wordSource interface {
	Uint64() uint64
}

// float53 is Source.Float64 over any word source.
func float53(s wordSource) float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// binomial is Binomial drawing from s.
func binomial(s wordSource, n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	// Exploit symmetry so the rejection sampler works with p <= 1/2.
	if p > 0.5 {
		return n - binomial(s, n, 1-p)
	}
	if float64(n)*p < 10 || n < 32 {
		return binomialDirect(s, n, p)
	}
	return binomialBTRS(s, n, p)
}

// geometricBelow is binomialDirect's split: below it the branch jumps
// between successes by geometric skips, at or above it it tests each trial.
const geometricBelow = 0.1

// binomialDirect sums n Bernoulli(p) draws. Exact and fast for small n·p.
func binomialDirect(s wordSource, n int, p float64) int {
	// Geometric skipping: the number of failures before the next success is
	// Geometric(p), so we jump between successes instead of testing every
	// trial. Expected work O(n·p + 1).
	if p < geometricBelow {
		count := 0
		i := 0
		logq := math.Log1p(-p)
		for {
			skip := geomSkip(s.Uint64()>>11, logq)
			i += skip + 1
			if i > n {
				return count
			}
			count++
		}
	}
	count := 0
	for i := 0; i < n; i++ {
		if float53(s) < p {
			count++
		}
	}
	return count
}

// geomSkip is the geometric skip of binomialDirect and Geometric: the
// number of Bernoulli(p) failures before the next success, drawn by
// inversion from the 53-bit word u53 (Float64's mantissa), with
// logq = log1p(−p).
func geomSkip(u53 uint64, logq float64) int {
	return int(math.Floor(math.Log(1-float64(u53)/(1<<53)) / logq))
}

// binomialGuard is the half-width, in 53-bit words, of the band around
// each BinomialTable threshold inside which the table evaluates geomSkip
// instead of trusting the comparison. Near skip j the quotient in geomSkip
// moves by 1/(2·j·(1−p)^j·|log(1−p)|) ≥ e/2 ulps per word, so c ulps of
// rounding in Log and the division shift a crossing by under c words.
const binomialGuard = 1 << 12

// binomialTableMax caps the n a BinomialTable serves. Its scan passes one
// threshold per compare, so past a few dozen trials one logarithm per
// word is cheaper: at p = 0.05 the two break even near n = 64, and at
// n = 32 the table takes at most 0.7 of Binomial's time for any p < 0.1.
// It must stay below 100: then n·p < 10 for every n and p the table
// serves, so Binomial takes binomialDirect there, never BTRS.
const binomialTableMax = 32

// BinomialTable draws Bin(n, p) for one fixed p without taking logarithms.
// From a Words buffer it returns exactly what Source.Binomial(n, p)
// returns from the same stream: the same words in the same order, and the
// same value. So a caller can swap one for the other without moving any
// stream.
//
// It covers the geometric branch of Binomial's small-n path (p < 0.1).
// There each skip depends on the 53-bit word u53 only through which
// integer thresholds the non-decreasing expression geomSkip crosses. The
// table finds the least word reaching each skip j ≤ maxN once, by
// bisection over geomSkip itself around the exact-arithmetic value, and
// compares words against those thresholds. Within binomialGuard words of
// a threshold it evaluates geomSkip directly.
//
// Everything else goes to Source.Binomial unchanged: n above the table
// (at most binomialTableMax), p ≥ 0.1 (where Binomial already tests each
// trial with one compare, Float64() < p), and p so small that geomSkip
// overflows int.
type BinomialTable struct {
	p    float64
	maxN int // largest n served by the table; larger n go to Binomial
	// thr[j] is the least u53 whose geometric skip is at least j, for
	// 0 ≤ j ≤ maxN.
	thr  []uint64
	logq float64
}

// NewBinomialTable returns the sampler for Bin(n, p), with n ≤
// min(maxN, binomialTableMax) served from the table. It panics unless
// 0 ≤ p ≤ 1, so NaN never builds one.
func NewBinomialTable(p float64, maxN int) *BinomialTable {
	if !(p >= 0 && p <= 1) {
		panic("rng: NewBinomialTable requires 0 <= p <= 1")
	}
	t := &BinomialTable{p: p}
	if p == 0 || p >= geometricBelow {
		return t // Binomial draws nothing, or tests each trial
	}
	t.logq = math.Log1p(-p)
	// Below p ≈ 4·10⁻¹⁸ the top word's skip, log(2⁻⁵³)/logq, overflows
	// int, so geomSkip stops being monotone in the word and no threshold
	// decides it. Those p stay with Binomial.
	if math.Log(0x1p-53)/t.logq >= 0x1p62 {
		return t
	}
	t.maxN = min(max(maxN, 0), binomialTableMax)
	t.thr = make([]uint64, t.maxN+1)
	for j := 1; j <= t.maxN; j++ {
		// Invariant: geomSkip(lo) < j ≤ geomSkip(hi); hi = 2⁵³ means no
		// word reaches j. In exact arithmetic the threshold is
		// ⌈(1−q^j)·2⁵³⌉, and rounding in Expm1 and geomSkip moves it by a
		// word or two. So bisect the 32 words around that value when
		// geomSkip confirms they bracket j, and all words otherwise.
		lo, hi := uint64(0), uint64(1<<53)
		if est := uint64(-math.Expm1(float64(j)*t.logq) * (1 << 53)); est >= 16 && est+16 < 1<<53 {
			if geomSkip(est-16, t.logq) < j && geomSkip(est+16, t.logq) >= j {
				lo, hi = est-16, est+16
			}
		}
		for hi-lo > 1 {
			if mid := lo + (hi-lo)/2; geomSkip(mid, t.logq) >= j {
				hi = mid
			} else {
				lo = mid
			}
		}
		// Thresholds close in as j grows. Serve only the n whose guard
		// bands stay apart: all of them unless p is below about 2⁻⁴⁰.
		if hi-t.thr[j-1] <= 2*binomialGuard {
			t.maxN, t.thr = j-1, t.thr[:j]
			break
		}
		t.thr[j] = hi
	}
	return t
}

// TrySample is Sample's inlinable fast path. It decides the two common
// draws: n ≤ 0, which draws nothing, and a first word clearing thr[n]'s
// guard band, which is a skip past all n trials and so 0 flips (what skip
// returns at r = n). It then returns 0 and true, having consumed that one
// word. Otherwise it consumes nothing and returns false, and Sample draws
// from the same word.
func (t *BinomialTable) TrySample(w *Words, n int) (int, bool) {
	if n <= 0 {
		return 0, true
	}
	if n <= t.maxN && uint(w.pos) < wordsLen && w.buf[w.pos]>>11 >= t.thr[n]+binomialGuard {
		w.pos++
		return 0, true
	}
	return 0, false
}

// Sample returns a draw from Bin(n, p) through w: exactly the value and
// the words Source.Binomial(n, p) takes from the same stream.
func (t *BinomialTable) Sample(w *Words, n int) int {
	if n <= 0 {
		return 0
	}
	if n > t.maxN {
		return binomial(w, n, t.p)
	}
	// binomialDirect's geometric loop, counting the r trials left: a skip
	// of r or more passes the last trial. At r = 0 it still draws the one
	// word binomialDirect draws before it returns.
	count := 0
	for r := n; ; {
		skip := t.skip(w.Uint64()>>11, r)
		if skip >= r {
			return count
		}
		r -= skip + 1
		count++
	}
}

// skip returns geomSkip(u, logq) capped at r.
func (t *BinomialTable) skip(u uint64, r int) int {
	if u >= t.thr[r]+binomialGuard || r == 0 {
		return r // u clears the largest threshold still in play
	}
	j := r - 1
	for j > 0 && u < t.thr[j] {
		j--
	}
	// thr[j] ≤ u, and u < thr[j+1] unless u is in thr[r]'s guard band:
	// the skip is j when u lies outside both neighbours' bands.
	if (j == 0 || u >= t.thr[j]+binomialGuard) && u+binomialGuard < t.thr[j+1] {
		return j
	}
	return min(geomSkip(u, t.logq), r)
}

// binomialBTRS implements the BTRS algorithm (Hörmann, "The generation of
// binomial random variates", J. Stat. Comput. Simul. 46, 1993) for
// n·p >= 10 and p <= 1/2.
func binomialBTRS(s wordSource, n int, p float64) int {
	nf := float64(n)
	q := 1 - p
	spq := math.Sqrt(nf * p * q)

	b := 1.15 + 2.53*spq
	a := -0.0873 + 0.0248*b + 0.01*p
	c := nf*p + 0.5
	vr := 0.92 - 4.2/b

	alpha := (2.83 + 5.1/b) * spq
	lpq := math.Log(p / q)
	m := math.Floor((nf + 1) * p)
	h := lgamma(m+1) + lgamma(nf-m+1)

	for {
		u := float53(s) - 0.5
		v := float53(s)
		us := 0.5 - math.Abs(u)
		k := math.Floor((2*a/us+b)*u + c)
		if k < 0 || k > nf {
			continue
		}
		if us >= 0.07 && v <= vr {
			return int(k)
		}
		v = math.Log(v * alpha / (a/(us*us) + b))
		if v <= h-lgamma(k+1)-lgamma(nf-k+1)+(k-m)*lpq {
			return int(k)
		}
	}
}

// lgamma is math.Lgamma without the sign result; the arguments used here
// are always positive.
func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

// Geometric returns the number of Bernoulli(p) failures before the first
// success, i.e. a sample from the geometric distribution on {0, 1, 2, ...}.
// It panics if p <= 0 or p > 1.
func (s *Source) Geometric(p float64) int {
	if !(p > 0 && p <= 1) {
		panic("rng: Geometric requires 0 < p <= 1")
	}
	if p == 1 {
		return 0
	}
	return geomSkip(s.Uint64()>>11, math.Log1p(-p))
}
