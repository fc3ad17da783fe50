// Package stats provides the small statistical toolkit used by the
// experiment harness: summary statistics, confidence intervals for
// proportions, least-squares fits for scaling exponents, and binomial
// tails.
package stats

import (
	"math"
	"sort"
)

// Summary holds the usual batch statistics of a sample.
type Summary struct {
	N              int
	Mean, Variance float64 // Variance is the unbiased (n−1) estimator
	Std            float64
	Min, Max       float64
	Median         float64
}

// Summarize computes a Summary of xs. An empty sample yields a zero Summary.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Variance = ss / float64(s.N-1)
		s.Std = math.Sqrt(s.Variance)
	}
	s.Median = Quantile(xs, 0.5)
	return s
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It does not modify xs. An empty
// sample yields NaN.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Proportion is an observed success proportion with a Wilson score
// confidence interval.
type Proportion struct {
	Successes, Trials int
	P                 float64 // point estimate
	Lo, Hi            float64 // Wilson interval bounds
}

// WilsonInterval returns the Wilson score interval for k successes in n
// trials at the given z (z = 1.96 for 95%). Zero trials yields the vacuous
// interval [0, 1].
func WilsonInterval(k, n int, z float64) Proportion {
	pr := Proportion{Successes: k, Trials: n, Lo: 0, Hi: 1}
	if n == 0 {
		pr.P = math.NaN()
		return pr
	}
	p := float64(k) / float64(n)
	pr.P = p
	nf := float64(n)
	z2 := z * z
	denom := 1 + z2/nf
	centre := (p + z2/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf)) / denom
	pr.Lo = math.Max(0, centre-half)
	pr.Hi = math.Min(1, centre+half)
	return pr
}

// LinearFit holds the least-squares line y = Slope·x + Intercept with the
// coefficient of determination.
type LinearFit struct {
	Slope, Intercept, R2 float64
}

// FitLine fits a least-squares line through (x, y). It panics on mismatched
// lengths and returns a zero fit for fewer than 2 points.
func FitLine(x, y []float64) LinearFit {
	if len(x) != len(y) {
		panic("stats: FitLine length mismatch")
	}
	n := float64(len(x))
	if len(x) < 2 {
		return LinearFit{}
	}
	var sx, sy, sxx, sxy, syy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
		syy += y[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return LinearFit{}
	}
	slope := (n*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / n
	// R² from explained variance.
	ssTot := syy - sy*sy/n
	ssRes := 0.0
	for i := range x {
		r := y[i] - (slope*x[i] + intercept)
		ssRes += r * r
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	}
	return LinearFit{Slope: slope, Intercept: intercept, R2: r2}
}

// FitPower fits y = c·x^e by least squares in log-log space and returns
// (e, c, R²). All inputs must be positive; non-positive pairs are skipped.
func FitPower(x, y []float64) (exponent, coeff, r2 float64) {
	var lx, ly []float64
	for i := range x {
		if x[i] > 0 && y[i] > 0 {
			lx = append(lx, math.Log(x[i]))
			ly = append(ly, math.Log(y[i]))
		}
	}
	fit := FitLine(lx, ly)
	return fit.Slope, math.Exp(fit.Intercept), fit.R2
}

// BinomialTail returns P(X >= k) for X ~ Bin(n, p), computed by summing the
// pmf in log space for numerical stability. Used to check the Lemma 7
// bounds against the exact binomial tail.
func BinomialTail(n, k int, p float64) float64 {
	if k <= 0 {
		return 1
	}
	if k > n || p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	total := 0.0
	lp, lq := math.Log(p), math.Log1p(-p)
	for i := k; i <= n; i++ {
		lc := lchoose(n, i)
		total += math.Exp(lc + float64(i)*lp + float64(n-i)*lq)
	}
	if total > 1 {
		total = 1
	}
	return total
}

// lchoose returns log(n choose k).
func lchoose(n, k int) float64 {
	if k < 0 || k > n {
		return math.Inf(-1)
	}
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}
