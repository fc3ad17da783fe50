package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Errorf("summary = %+v", s)
	}
	if !almost(s.Variance, 2.5, 1e-12) {
		t.Errorf("variance = %v, want 2.5", s.Variance)
	}
	if !almost(s.Std, math.Sqrt(2.5), 1e-12) {
		t.Errorf("std = %v", s.Std)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Errorf("empty summary N = %d", s.N)
	}
	s := Summarize([]float64{7})
	if s.Mean != 7 || s.Variance != 0 || s.Median != 7 || s.Min != 7 || s.Max != 7 {
		t.Errorf("single summary = %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2} // unsorted on purpose
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 4 {
		t.Errorf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); !almost(q, 2.5, 1e-12) {
		t.Errorf("median = %v", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
	// Quantile must not mutate its input.
	if xs[0] != 4 {
		t.Error("Quantile sorted the caller's slice")
	}
}

func TestWilsonInterval(t *testing.T) {
	p := WilsonInterval(50, 100, 1.96)
	if !almost(p.P, 0.5, 1e-12) {
		t.Errorf("P = %v", p.P)
	}
	if p.Lo >= 0.5 || p.Hi <= 0.5 {
		t.Errorf("interval [%v, %v] should straddle 0.5", p.Lo, p.Hi)
	}
	if p.Lo < 0.40 || p.Hi > 0.60 {
		t.Errorf("interval [%v, %v] too wide for n=100", p.Lo, p.Hi)
	}
	// Extreme: all successes keeps Hi = 1 but Lo close to 1 for big n.
	q := WilsonInterval(1000, 1000, 1.96)
	if q.Lo < 0.99 {
		t.Errorf("all-success Lo = %v", q.Lo)
	}
	// Zero trials: vacuous.
	z := WilsonInterval(0, 0, 1.96)
	if z.Lo != 0 || z.Hi != 1 || !math.IsNaN(z.P) {
		t.Errorf("zero-trial interval = %+v", z)
	}
}

func TestWilsonMonotoneInN(t *testing.T) {
	// More trials at the same proportion must narrow the interval.
	small := WilsonInterval(5, 10, 1.96)
	large := WilsonInterval(500, 1000, 1.96)
	if large.Hi-large.Lo >= small.Hi-small.Lo {
		t.Errorf("interval did not narrow: %v vs %v", large, small)
	}
}

func TestFitLineExact(t *testing.T) {
	x := []float64{0, 1, 2, 3}
	y := []float64{1, 3, 5, 7} // y = 2x + 1
	f := FitLine(x, y)
	if !almost(f.Slope, 2, 1e-12) || !almost(f.Intercept, 1, 1e-12) || !almost(f.R2, 1, 1e-12) {
		t.Errorf("fit = %+v", f)
	}
}

func TestFitLineDegenerate(t *testing.T) {
	if f := FitLine(nil, nil); f.Slope != 0 {
		t.Error("empty fit should be zero")
	}
	if f := FitLine([]float64{1}, []float64{2}); f.Slope != 0 {
		t.Error("single-point fit should be zero")
	}
	// Vertical data (all same x) must not divide by zero.
	f := FitLine([]float64{2, 2, 2}, []float64{1, 2, 3})
	if f.Slope != 0 {
		t.Errorf("vertical fit slope = %v", f.Slope)
	}
}

func TestFitLinePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	FitLine([]float64{1}, []float64{1, 2})
}

func TestFitPower(t *testing.T) {
	// y = 3·x^1.5
	x := []float64{1, 2, 4, 8, 16}
	y := make([]float64, len(x))
	for i := range x {
		y[i] = 3 * math.Pow(x[i], 1.5)
	}
	e, c, r2 := FitPower(x, y)
	if !almost(e, 1.5, 1e-9) || !almost(c, 3, 1e-9) || !almost(r2, 1, 1e-9) {
		t.Errorf("power fit: e=%v c=%v r2=%v", e, c, r2)
	}
}

func TestFitPowerSkipsNonPositive(t *testing.T) {
	x := []float64{1, 2, -1, 4}
	y := []float64{2, 4, 9, 8} // y = 2x on the positive pairs
	e, c, _ := FitPower(x, y)
	if !almost(e, 1, 1e-9) || !almost(c, 2, 1e-9) {
		t.Errorf("power fit with skip: e=%v c=%v", e, c)
	}
}

func TestBinomialTail(t *testing.T) {
	// P(X >= 1) for Bin(2, 0.5) = 3/4.
	if got := BinomialTail(2, 1, 0.5); !almost(got, 0.75, 1e-12) {
		t.Errorf("tail = %v, want 0.75", got)
	}
	// P(X >= 2) for Bin(3, p) = 3p²(1−p) + p³ — the paper's eq. (1).
	p := 0.3
	want := 3*p*p*(1-p) + p*p*p
	if got := BinomialTail(3, 2, p); !almost(got, want, 1e-12) {
		t.Errorf("best-of-three tail = %v, want %v", got, want)
	}
	// Boundary cases.
	if BinomialTail(5, 0, 0.5) != 1 || BinomialTail(5, -1, 0.5) != 1 {
		t.Error("k <= 0 tail should be 1")
	}
	if BinomialTail(5, 6, 0.5) != 0 {
		t.Error("k > n tail should be 0")
	}
	if BinomialTail(5, 3, 0) != 0 || BinomialTail(5, 3, 1) != 1 {
		t.Error("degenerate p tails wrong")
	}
}

func TestBinomialTailMonotoneInK(t *testing.T) {
	prev := 1.0
	for k := 0; k <= 20; k++ {
		cur := BinomialTail(20, k, 0.4)
		if cur > prev+1e-12 {
			t.Fatalf("tail increased at k=%d: %v > %v", k, cur, prev)
		}
		prev = cur
	}
}

// Property: Wilson interval always contains the point estimate.
func TestQuickWilsonContainsP(t *testing.T) {
	f := func(kRaw, nRaw uint16) bool {
		n := int(nRaw)%1000 + 1
		k := int(kRaw) % (n + 1)
		pr := WilsonInterval(k, n, 1.96)
		return pr.Lo <= pr.P+1e-12 && pr.P <= pr.Hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Summarize min <= median <= max and min <= mean <= max.
func TestQuickSummaryOrdering(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			// Bound magnitudes so the running sum cannot overflow; the
			// property under test is ordering, not extreme-value handling.
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e300 {
				clean = append(clean, math.Mod(x, 1e6))
			}
		}
		if len(clean) == 0 {
			return true
		}
		s := Summarize(clean)
		return s.Min <= s.Median && s.Median <= s.Max && s.Min <= s.Mean && s.Mean <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
