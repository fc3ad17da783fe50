package rng

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams from equal seeds diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("seeds 1 and 2 produced %d equal outputs out of 100", same)
	}
}

func TestNewFromStreamsIndependent(t *testing.T) {
	a := NewFrom(7, 0)
	b := NewFrom(7, 1)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams 0 and 1 produced %d equal outputs out of 100", same)
	}
}

func TestReseedRestartsStream(t *testing.T) {
	s := New(99)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = s.Uint64()
	}
	s.Reseed(99)
	for i := range first {
		if got := s.Uint64(); got != first[i] {
			t.Fatalf("after Reseed, output %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestNormalizeZeroState(t *testing.T) {
	var s Source // all-zero state
	s.normalize()
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		t.Fatal("normalize left an all-zero state")
	}
	// The generator must now produce non-constant output.
	x, y := s.Uint64(), s.Uint64()
	if x == y {
		t.Errorf("degenerate output after normalize: %d == %d", x, y)
	}
}

func TestUint64nBounds(t *testing.T) {
	s := New(3)
	for _, n := range []uint64{1, 2, 3, 7, 64, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := s.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Intn(%d) did not panic", n)
				}
			}()
			New(1).Intn(n)
		}()
	}
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared-ish sanity check over 8 buckets.
	s := New(1234)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Uint64n(n)]++
	}
	want := float64(draws) / n
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d too far from expected %.0f", b, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(6)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBernoulliExtremes(t *testing.T) {
	s := New(7)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if s.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) returned true")
		}
		if !s.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	s := New(8)
	const n = 100000
	for _, p := range []float64{0.1, 0.5, 0.9} {
		hits := 0
		for i := 0; i < n; i++ {
			if s.Bernoulli(p) {
				hits++
			}
		}
		got := float64(hits) / n
		if math.Abs(got-p) > 0.01 {
			t.Errorf("Bernoulli(%v) frequency = %v", p, got)
		}
	}
}

// fillBernoulliReference is the per-draw loop FillBernoulli replaces: n
// Bernoulli(p) calls, with bit i of dst set iff draw i is true.
func fillBernoulliReference(s *Source, dst []uint64, n int, p float64) {
	clear(dst)
	for i := 0; i < n; i++ {
		if s.Bernoulli(p) {
			dst[i/64] |= 1 << (i % 64)
		}
	}
}

// checkFillBernoulli fills ⌈n/64⌉ words from two sources seeded alike,
// through FillBernoulli into a dirty slice and through the reference loop:
// every word must agree, the bits past n must come back clear, and both
// sources must go on with the same next word.
func checkFillBernoulli(t *testing.T, seed uint64, n int, p float64) {
	t.Helper()
	got := make([]uint64, (n+63)/64)
	for i := range got {
		got[i] = ^uint64(0)
	}
	want := make([]uint64, len(got))
	a, b := New(seed), New(seed)
	a.FillBernoulli(got, n, p)
	fillBernoulliReference(b, want, n, p)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed=%d n=%d p=%v: word %d = %#x, Bernoulli loop %#x", seed, n, p, i, got[i], want[i])
		}
	}
	if rem := n % 64; rem != 0 && got[len(got)-1]>>rem != 0 {
		t.Fatalf("seed=%d n=%d p=%v: bits past n set in %#x", seed, n, p, got[len(got)-1])
	}
	if a.Uint64() != b.Uint64() {
		t.Fatalf("seed=%d n=%d p=%v: FillBernoulli consumed a different number of words", seed, n, p)
	}
}

// TestFillBernoulliMatchesBernoulli: the packed kernel equals n Bernoulli
// calls word for word, at both early returns (p ≤ 0 and p ≥ 1 draw
// nothing), at NaN (draws n words, all false), at the smallest
// thresholds, at ½ (the exact 2⁵² threshold) and the floats just below ½
// and 1, and at every word boundary of n.
func TestFillBernoulliMatchesBernoulli(t *testing.T) {
	probs := []float64{0, 5e-324, 1e-300, 1e-9, 0.05, 0.4, 0.45, 0.5, math.Nextafter(0.5, 0), 0.7,
		math.Nextafter(1, 0), 1, 1.5, -0.1, math.NaN()}
	for _, p := range probs {
		for _, n := range []int{0, 1, 63, 64, 65, 127, 128, 129, 1000, 4097} {
			for _, seed := range []uint64{1, 2, 3} {
				checkFillBernoulli(t, seed, n, p)
			}
		}
	}
}

// TestBernoulliThreshold: Float64() < p holds for exactly the 53-bit
// words below the threshold, checked at the words around it, for p on and
// off the 2⁻⁵³ grid, subnormal p and NaN.
func TestBernoulliThreshold(t *testing.T) {
	probs := []float64{5e-324, 1e-300, 0x1p-53, 0x3p-53, 1e-9, 0.05, 0.4, 0.5, math.Nextafter(0.5, 0),
		math.Nextafter(0.5, 1), 0.7, math.Nextafter(1, 0), -0.1, math.NaN()}
	s := New(9)
	for i := 0; i < 1000; i++ {
		u := s.Float64()
		probs = append(probs, u, u*1e-12, float64(s.Uint64()>>11)/(1<<53))
	}
	for _, p := range probs {
		thr := bernoulliThreshold(p)
		for u := thr - min(thr, 2); u <= thr+1 && u < 1<<53; u++ {
			if got, want := u < thr, float64(u)/(1<<53) < p; got != want {
				t.Fatalf("p=%v threshold %d: word %d below it = %t, Float64() < p = %t", p, thr, u, got, want)
			}
		}
	}
}

func TestFillBernoulliPanicsOnNegativeN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FillBernoulli(n = -1) did not panic")
		}
	}()
	New(1).FillBernoulli(nil, -1, 0.5)
}

// FuzzFillBernoulli: for any seed, n and p, FillBernoulli and the
// Bernoulli loop draw the same bits from the same words.
func FuzzFillBernoulli(f *testing.F) {
	f.Add(uint64(1), 100, 0.45)
	f.Add(uint64(2), 4097, 0.5)
	f.Add(uint64(3), 65, math.Nextafter(1, 0))
	f.Add(uint64(4), 1, 5e-324)
	f.Add(uint64(5), 64, math.NaN())
	f.Add(uint64(6), 3, -0.1)
	f.Fuzz(func(t *testing.T, seed uint64, n int, p float64) {
		checkFillBernoulli(t, seed, int(uint(n)%5000), p)
	})
}

func TestPermIsPermutation(t *testing.T) {
	s := New(9)
	for _, n := range []int{0, 1, 2, 5, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestPermUniformFirstElement(t *testing.T) {
	s := New(10)
	const n, draws = 5, 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Perm(n)[0]]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("Perm first element %d occurred %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestShuffleSwapCount(t *testing.T) {
	s := New(11)
	calls := 0
	s.Shuffle(10, func(i, j int) { calls++ })
	if calls != 9 {
		t.Errorf("Shuffle(10) made %d swap calls, want 9", calls)
	}
	// n <= 1 must not call swap at all.
	calls = 0
	s.Shuffle(1, func(i, j int) { calls++ })
	s.Shuffle(0, func(i, j int) { calls++ })
	if calls != 0 {
		t.Errorf("Shuffle of size <= 1 called swap %d times", calls)
	}
}

func TestBinomialBounds(t *testing.T) {
	s := New(13)
	cases := []struct {
		n int
		p float64
	}{{0, 0.5}, {1, 0.5}, {10, 0.0}, {10, 1.0}, {10, 0.3}, {1000, 0.01},
		{1000, 0.5}, {100000, 0.25}, {100000, 0.9}}
	for _, c := range cases {
		for i := 0; i < 50; i++ {
			v := s.Binomial(c.n, c.p)
			if v < 0 || v > c.n {
				t.Fatalf("Binomial(%d, %v) = %d out of range", c.n, c.p, v)
			}
		}
	}
}

func TestBinomialDegenerate(t *testing.T) {
	s := New(14)
	if v := s.Binomial(10, 0); v != 0 {
		t.Errorf("Binomial(10, 0) = %d", v)
	}
	if v := s.Binomial(10, 1); v != 10 {
		t.Errorf("Binomial(10, 1) = %d", v)
	}
	if v := s.Binomial(0, 0.7); v != 0 {
		t.Errorf("Binomial(0, 0.7) = %d", v)
	}
	if v := s.Binomial(-3, 0.7); v != 0 {
		t.Errorf("Binomial(-3, 0.7) = %d", v)
	}
}

func TestBinomialMoments(t *testing.T) {
	s := New(15)
	cases := []struct {
		n int
		p float64
	}{{20, 0.3}, {1000, 0.02}, {5000, 0.5}, {200, 0.85}}
	const draws = 20000
	for _, c := range cases {
		sum, sumsq := 0.0, 0.0
		for i := 0; i < draws; i++ {
			v := float64(s.Binomial(c.n, c.p))
			sum += v
			sumsq += v * v
		}
		mean := sum / draws
		wantMean := float64(c.n) * c.p
		sd := math.Sqrt(float64(c.n) * c.p * (1 - c.p))
		if math.Abs(mean-wantMean) > 6*sd/math.Sqrt(draws) {
			t.Errorf("Binomial(%d,%v) mean = %v, want %v", c.n, c.p, mean, wantMean)
		}
		variance := sumsq/draws - mean*mean
		wantVar := float64(c.n) * c.p * (1 - c.p)
		if math.Abs(variance-wantVar) > 0.15*wantVar+0.5 {
			t.Errorf("Binomial(%d,%v) var = %v, want %v", c.n, c.p, variance, wantVar)
		}
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(16)
	for _, p := range []float64{0.1, 0.5, 0.9} {
		sum := 0.0
		const draws = 50000
		for i := 0; i < draws; i++ {
			sum += float64(s.Geometric(p))
		}
		mean := sum / draws
		want := (1 - p) / p
		if math.Abs(mean-want) > 0.1*want+0.02 {
			t.Errorf("Geometric(%v) mean = %v, want %v", p, mean, want)
		}
	}
}

func TestGeometricOne(t *testing.T) {
	s := New(17)
	for i := 0; i < 100; i++ {
		if v := s.Geometric(1); v != 0 {
			t.Fatalf("Geometric(1) = %d", v)
		}
	}
}

func TestGeometricPanics(t *testing.T) {
	for _, p := range []float64{0, -0.3, 1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Geometric(%v) did not panic", p)
				}
			}()
			New(1).Geometric(p)
		}()
	}
}

// Property: Uint64n(n) < n for all n > 0 and all seeds.
func TestQuickUint64nInRange(t *testing.T) {
	f := func(seed uint64, n uint64) bool {
		if n == 0 {
			n = 1
		}
		s := New(seed)
		for i := 0; i < 20; i++ {
			if s.Uint64n(n) >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Perm always returns a valid permutation.
func TestQuickPermValid(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		p := New(seed).Perm(int(n))
		seen := make(map[int]bool, len(p))
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Binomial stays within [0, n] for arbitrary (n, p).
func TestQuickBinomialInRange(t *testing.T) {
	f := func(seed uint64, n uint16, pRaw uint16) bool {
		p := float64(pRaw) / float64(math.MaxUint16)
		s := New(seed)
		v := s.Binomial(int(n), p)
		return v >= 0 && v <= int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64()
	}
	_ = sink
}

func BenchmarkUint64n(b *testing.B) {
	s := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += s.Uint64n(12345)
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += s.Float64()
	}
	_ = sink
}

func BenchmarkBinomialSmall(b *testing.B) {
	s := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += s.Binomial(3, 0.3)
	}
	_ = sink
}

func BenchmarkBinomialLarge(b *testing.B) {
	s := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += s.Binomial(100000, 0.4)
	}
	_ = sink
}

func TestChildSeedDeterministicAndDistinct(t *testing.T) {
	if ChildSeed(1, 2, 3) != ChildSeed(1, 2, 3) {
		t.Fatal("ChildSeed is not deterministic")
	}
	seen := map[uint64]string{}
	record := func(name string, s uint64) {
		if prev, ok := seen[s]; ok {
			t.Fatalf("ChildSeed collision: %s and %s both map to %d", prev, name, s)
		}
		seen[s] = name
	}
	// Small labels, sibling paths, and path-vs-prefix must all separate.
	for i := uint64(0); i < 100; i++ {
		record(fmt.Sprintf("(7,%d)", i), ChildSeed(7, i))
	}
	record("(7)", ChildSeed(7))
	record("(7,0,0)", ChildSeed(7, 0, 0))
	record("(8,0)", ChildSeed(8, 0))
}

func TestChildSeedStreamsIndependent(t *testing.T) {
	a := New(ChildSeed(1, 0))
	b := New(ChildSeed(1, 1))
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("sibling child streams agreed on %d/64 draws", same)
	}
}

func TestFillMatchesSequentialUint64(t *testing.T) {
	a := New(99)
	b := New(99)
	var buf [300]uint64
	a.Fill(buf[:])
	for i, w := range buf {
		if got := b.Uint64(); got != w {
			t.Fatalf("Fill[%d] = %d, sequential Uint64 = %d", i, w, got)
		}
	}
	// State must line up afterwards too: the next draws agree.
	for i := 0; i < 16; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("states diverged after Fill at draw %d", i)
		}
	}
}

func TestFillEmpty(t *testing.T) {
	a := New(3)
	b := New(3)
	a.Fill(nil)
	if a.Uint64() != b.Uint64() {
		t.Error("Fill(nil) advanced the state")
	}
}

// binomialTableProbs are the noise levels the table tests sweep: a p so
// small that Binomial's skips overflow int (the table must leave it to
// Binomial, whose draws there are wrong, even above n), both ends of the
// geometric branch, the float just below its 0.1 cut-off, and p from 0.1
// to 1/2, which the table leaves to Binomial.
var binomialTableProbs = []float64{1e-20, 1e-9, 0.01, 0.05, math.Nextafter(0.1, 0), 0.1, 0.25, 0.5}

// binomialTableMaxN is the table size the tests build: spec.MaxK, the
// largest sample count a rule can ask for.
const binomialTableMaxN = 255

// tableDraw is the flip draw the dynamics engine makes: the table's
// inlined fast path, then its one slow call if the fast path declines.
func tableDraw(tbl *BinomialTable, w *Words, n int) int {
	x, ok := tbl.TrySample(w, n)
	if !ok {
		x = tbl.Sample(w, n)
	}
	return x
}

// checkTableDraws draws Bin(n, p) draws times from two streams seeded
// alike, through the engine's table draw from buffered Words and through
// Source.Binomial: every value must agree, and both must leave the stream
// at the same word. The draws cross buffer refills whenever draws·n
// words outrun the 256-word buffer.
func checkTableDraws(t *testing.T, tbl *BinomialTable, p float64, n int, seed uint64, draws int) {
	t.Helper()
	a, b := NewWords(New(seed)), New(seed)
	for i := 0; i < draws; i++ {
		if got, want := tableDraw(tbl, a, n), b.Binomial(n, p); got != want {
			t.Fatalf("p=%v n=%d draw %d: table %d, Binomial %d", p, n, i, got, want)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatalf("p=%v n=%d: table consumed a different number of words", p, n)
	}
}

// TestBinomialTableMatchesBinomial: from equal seeds, every engine draw
// through the table equals Source.Binomial's, and both leave the stream
// at the same word. n runs past the table into Binomial's BTRS region for
// p ≥ 0.05.
func TestBinomialTableMatchesBinomial(t *testing.T) {
	for _, p := range binomialTableProbs {
		tbl := NewBinomialTable(p, binomialTableMaxN)
		for n := 0; n <= binomialTableMaxN; n++ {
			checkTableDraws(t, tbl, p, n, uint64(n)*1000+uint64(p*1e6), 64)
		}
	}
}

// TestBinomialTableWindows: each threshold is a word where geomSkip
// reaches its skip, and every 53-bit word within ±2¹⁶ of it gets
// geomSkip's own skip, both where that threshold ends the draw (r = j) and
// where the scan below the last threshold meets it (r = j+1). The first
// word of the engine's draw of Bin(r) is decided the same way: when the
// inlined fast path takes it as 0 flips, geomSkip passes all r trials.
func TestBinomialTableWindows(t *testing.T) {
	const window = 1 << 16
	w := NewWords(New(1))
	for _, p := range []float64{0.01, 0.05, math.Nextafter(0.1, 0)} {
		tbl := NewBinomialTable(p, binomialTableMaxN)
		if tbl.thr == nil || tbl.maxN != binomialTableMax {
			t.Fatalf("p=%v: table serves n ≤ %d, want %d on the geometric branch", p, tbl.maxN, binomialTableMax)
		}
		for j := 1; j <= tbl.maxN; j++ {
			if geomSkip(tbl.thr[j]-1, tbl.logq) >= j || geomSkip(tbl.thr[j], tbl.logq) < j {
				t.Fatalf("p=%v: geomSkip does not reach %d at threshold %d", p, j, tbl.thr[j])
			}
			for u := tbl.thr[j] - window; u <= tbl.thr[j]+window && u < 1<<53; u++ {
				want := geomSkip(u, tbl.logq)
				for _, r := range []int{j, min(j+1, tbl.maxN)} {
					if got := tbl.skip(u, r); got != min(want, r) {
						t.Fatalf("p=%v threshold %d word %d r=%d: skip %d, geomSkip %d", p, j, u, r, got, want)
					}
					w.pos, w.buf[0] = 0, u<<11|0x7ff
					if _, ok := tbl.TrySample(w, r); ok != (w.pos == 1) || ok && want < r {
						t.Fatalf("p=%v threshold %d word %d r=%d: fast path took %v (consumed %d words), geomSkip %d", p, j, u, r, ok, w.pos, want)
					}
				}
			}
		}
	}
}

func TestNewBinomialTableRejectsBadP(t *testing.T) {
	for _, p := range []float64{math.NaN(), -0.1, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewBinomialTable(%v) did not panic", p)
				}
			}()
			NewBinomialTable(p, 3)
		}()
	}
}

// FuzzBinomialTable: for any valid p and n, the engine's table draw from
// buffered Words and Source.Binomial draw the same values from the same
// words.
func FuzzBinomialTable(f *testing.F) {
	f.Add(uint64(1), 0.05, 3)
	f.Add(uint64(2), 0.01, 40)
	f.Add(uint64(3), 0.5, 3)
	f.Add(uint64(4), 0.25, 300)
	f.Add(uint64(5), 1e-12, 7)
	f.Fuzz(func(t *testing.T, seed uint64, p float64, n int) {
		if !(p >= 0 && p <= 1) {
			return
		}
		checkTableDraws(t, NewBinomialTable(p, binomialTableMaxN), p, n%(2*binomialTableMaxN), seed, 16)
	})
}

// BenchmarkBinomialFlips draws noise flips through Binomial and through
// the table: Bin(3, 0.05), a Best-of-Three vertex at noise 0.05, and
// Bin(32, 0.09), the costliest draw the table serves (its scan is longest
// at its largest n and p).
func BenchmarkBinomialFlips(b *testing.B) {
	for _, c := range []struct {
		n int
		p float64
	}{{3, 0.05}, {binomialTableMax, 0.09}} {
		b.Run(fmt.Sprintf("n%d_p%v/Binomial", c.n, c.p), func(b *testing.B) {
			s := New(1)
			var sink int
			for i := 0; i < b.N; i++ {
				sink += s.Binomial(c.n, c.p)
			}
			_ = sink
		})
		b.Run(fmt.Sprintf("n%d_p%v/Table", c.n, c.p), func(b *testing.B) {
			w := NewWords(New(1))
			tbl := NewBinomialTable(c.p, c.n)
			var sink int
			for i := 0; i < b.N; i++ {
				sink += tableDraw(tbl, w, c.n)
			}
			_ = sink
		})
	}
}

// BenchmarkNewBinomialTable builds the table of a rule with the largest k
// (spec.MaxK) at noise 0.01: binomialTableMax thresholds. Every noisy
// trial builds one.
func BenchmarkNewBinomialTable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		NewBinomialTable(0.01, binomialTableMaxN)
	}
}

// TestWordsMatchesSource: Words hands out the source's stream word for
// word across refills, whatever mix of draws takes it: Intn (through
// TryIntn first, as the engine draws), Uint64 and Half each draw what the
// Source's own method draws. Peek shows the word d draws ahead without
// consuming it, and declines past the buffered block instead of
// refilling.
func TestWordsMatchesSource(t *testing.T) {
	w, s := NewWords(New(8)), New(8)
	if _, ok := w.Peek(0); ok {
		t.Fatal("Peek on an empty buffer reported a word")
	}
	for i := 0; i < 5000; i++ {
		// Bounds near 2⁶⁴ make Lemire's rejection likely.
		n := []int{1, 3, 1000, 1<<63 - 1, 3<<61 + 5}[i%5]
		switch i % 3 {
		case 0:
			got, ok := w.TryIntn(n)
			if !ok {
				got = w.Intn(n)
			}
			if want := s.Intn(n); got != want {
				t.Fatalf("draw %d: Intn(%d) = %d, Source %d", i, n, got, want)
			}
		case 1:
			if got, want := w.Uint64(), s.Uint64(); got != want {
				t.Fatalf("draw %d: Uint64 = %d, Source %d", i, got, want)
			}
		default:
			if got, want := w.Half(), s.Bernoulli(0.5); got != want {
				t.Fatalf("draw %d: Half = %v, Source %v", i, got, want)
			}
		}
		if d := i % 7; w.pos+d < wordsLen {
			ahead := *s
			for j := 0; j < d; j++ {
				ahead.Uint64()
			}
			if u, ok := w.Peek(d); !ok || u != ahead.Uint64() {
				t.Fatalf("draw %d: Peek(%d) = %d, %v", i, d, u, ok)
			}
		} else if _, ok := w.Peek(d); ok {
			t.Fatalf("draw %d: Peek(%d) past the block reported a word", i, d)
		}
	}
}
