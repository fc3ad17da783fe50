package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/rng"
)

// tailBeyond is how many samples must lie beyond a reported percentile: a
// tail figure resting on fewer would move with a handful of outliers.
const tailBeyond = 10

// poissonSchedule returns the send offsets of a Poisson arrival process
// with the given rate (arrivals per second) over [0, dur). The offsets are
// a pure function of the source's state, so one seed gives one schedule.
func poissonSchedule(src *rng.Source, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-src.Float64()) / rate
		if t >= dur.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100)
// and whether at least tailBeyond samples lie beyond it. +Inf entries
// stand for failed or refused operations: they sort last, so they count
// as missing any latency limit.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s)-rank >= tailBeyond
}

// tailPercentile is the highest integer percentile with at least
// tailBeyond samples beyond it; ok is false when even the median has
// fewer (fewer than 2·tailBeyond samples).
func tailPercentile(n int) (p int, ok bool) {
	for p = 99; p >= 50; p-- {
		rank := int(math.Ceil(float64(p) / 100 * float64(n)))
		if rank >= 1 && n-rank >= tailBeyond {
			return p, true
		}
	}
	return 0, false
}

// median is the nearest-rank median of xs, or 0 when xs is empty.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 50)
	return v
}

// ratio returns num/den, or 0 when den is 0 (a layer that did no work on
// the workload reports 0 rather than NaN).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
