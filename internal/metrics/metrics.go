// Package metrics is a zero-dependency, concurrency-safe metrics
// registry with Prometheus text-format exposition: the instrumentation
// substrate under bo3serve's /metrics endpoint.
//
// Three instrument kinds cover the service's needs:
//
//   - Counter: a monotonically increasing int64 (requests served, jobs
//     completed, bytes appended). Cheap enough for any hot path — one
//     atomic add.
//
//   - Gauge: an int64 that goes both ways (busy workers, queue depth).
//     Func-backed variants (GaugeFunc/CounterFunc) read a value at
//     scrape time instead of being pushed, for state another layer
//     already owns (uptime, store bytes, sequence numbers).
//
//   - Histogram: fixed upper-bound buckets with an exact sum and count —
//     the sum is accumulated as float64 bits under CAS, not derived from
//     bucket midpoints, so mean latency computed from _sum/_count is
//     exact, and bucket boundaries only quantise quantile estimates.
//
// Instruments come in unlabeled and labeled ("Vec") forms. Label
// cardinality is the caller's responsibility: label values become wire
// series, so bound them (engine names, route patterns, status classes —
// never job IDs).
//
// Creation is idempotent: asking the registry for an existing name
// returns the existing instrument when the kind and label names match,
// and panics on a mismatch — instrument identity bugs should fail at
// startup, not scrape time. All methods are safe for concurrent use.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Instrument kinds, as rendered in exposition TYPE lines.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// DefBuckets are the default latency buckets, in seconds: 100µs to 60s,
// sized for request/job/IO latencies.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// FastBuckets are sub-microsecond-to-second latency buckets for hot
// in-process operations (bus publishes, log appends) that complete far
// under DefBuckets' floor.
var FastBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 5e-3, 2.5e-2, 0.1, 1,
}

// Registry holds a set of named metric families and renders them in
// Prometheus text format. The zero value is not usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // registration order
}

// family is one named metric: kind, label names, and the child series.
type family struct {
	name, help, kind string
	labels           []string
	buckets          []float64      // histograms only
	fn               func() float64 // func-backed: read at scrape, no children

	mu       sync.Mutex
	children map[string]*series
	order    []string // child creation order
}

// series is one (label values) child of a family. Counters and gauges
// use val; histograms use counts/sumBits/count.
type series struct {
	labelValues []string
	val         atomic.Int64

	counts  []atomic.Int64 // per-bucket (non-cumulative); cumulated at render
	inf     atomic.Int64   // observations above the last bucket
	sumBits atomic.Uint64  // float64 bits of the exact observation sum
	count   atomic.Int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family returns the named family, creating it if needed and panicking on
// a kind or label-name mismatch with an existing registration.
func (r *Registry) family(name, help, kind string, buckets []float64, labels []string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || !slices.Equal(f.labels, labels) {
			panic(fmt.Sprintf("metrics: %s re-registered as %s%v, was %s%v", name, kind, labels, f.kind, f.labels))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, buckets: buckets, children: make(map[string]*series)}
	r.families[name] = f
	r.names = append(r.names, name)
	return f
}

// child returns the series for the label values, creating it if needed.
func (f *family) child(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("metrics: %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.children[key]; ok {
		return s
	}
	s := &series{labelValues: slices.Clone(values)}
	if f.kind == kindHistogram {
		s.counts = make([]atomic.Int64, len(f.buckets))
	}
	f.children[key] = s
	f.order = append(f.order, key)
	return s
}

// labelKey joins label values into a map key; 0x1f never appears in a
// sane label value, so joined keys cannot collide across value splits.
func labelKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	out := values[0]
	for _, v := range values[1:] {
		out += "\x1f" + v
	}
	return out
}

// Names returns every registered family name in registration order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.names)
}

// ---------------------------------------------------------------------
// Counter

// Counter is a monotonically increasing value.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.s.val.Add(1) }

// Add adds n (n must be >= 0; negative adds corrupt monotonicity and are
// the caller's bug — not checked on the hot path).
func (c *Counter) Add(n int64) { c.s.val.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.s.val.Load() }

// Counter returns the unlabeled counter with this name.
func (r *Registry) Counter(name, help string) *Counter {
	return &Counter{r.family(name, help, kindCounter, nil, nil).child(nil)}
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family with this name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, nil, labels)}
}

// With returns the child for the label values, creating it on first use.
func (v *CounterVec) With(values ...string) *Counter { return &Counter{v.f.child(values)} }

// Values snapshots every child keyed by its joined label values (single-
// label vecs are keyed by the bare value).
func (v *CounterVec) Values() map[string]int64 {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	out := make(map[string]int64, len(v.f.children))
	for k, s := range v.f.children {
		out[k] = s.val.Load()
	}
	return out
}

// CounterFunc registers a counter whose value is read at scrape time.
// For monotone state owned elsewhere (sequence numbers); fn must be safe
// for concurrent use and must not call back into the registry.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.family(name, help, kindCounter, nil, nil).fn = fn
}

// ---------------------------------------------------------------------
// Gauge

// Gauge is an instantaneous int64 value.
type Gauge struct{ s *series }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.s.val.Store(v) }

// Gauge returns the unlabeled gauge with this name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return &Gauge{r.family(name, help, kindGauge, nil, nil).child(nil)}
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family with this name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.family(name, help, kindGauge, nil, labels)}
}

// With returns the child for the label values, creating it on first use.
func (v *GaugeVec) With(values ...string) *Gauge { return &Gauge{v.f.child(values)} }

// GaugeFunc registers a gauge whose value is read at scrape time; fn
// must be safe for concurrent use and must not call back into the
// registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.family(name, help, kindGauge, nil, nil).fn = fn
}

// ---------------------------------------------------------------------
// Histogram

// Histogram accumulates observations into fixed upper-bound buckets with
// an exact sum and count.
type Histogram struct {
	s       *series
	buckets []float64
}

// Observe records one observation (for latencies: seconds).
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are small (≤ ~20) and the scan is
	// branch-predictable; a binary search buys nothing at this size.
	i := 0
	for i < len(h.buckets) && v > h.buckets[i] {
		i++
	}
	if i < len(h.buckets) {
		h.s.counts[i].Add(1)
	} else {
		h.s.inf.Add(1)
	}
	for {
		old := h.s.sumBits.Load()
		if h.s.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			break
		}
	}
	h.s.count.Add(1)
}

// ObserveSince records the seconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// Histogram returns the unlabeled histogram with this name. buckets are
// the upper bounds in ascending order, +Inf implicit; nil = DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.family(name, help, kindHistogram, normBuckets(buckets), nil)
	return &Histogram{f.child(nil), f.buckets}
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family with this name;
// bucket semantics as in Histogram.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.family(name, help, kindHistogram, normBuckets(buckets), labels)}
}

// With returns the child for the label values, creating it on first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	return &Histogram{v.f.child(values), v.f.buckets}
}

// normBuckets validates bucket bounds (nil defaults to DefBuckets).
func normBuckets(buckets []float64) []float64 {
	if buckets == nil {
		return DefBuckets
	}
	if len(buckets) == 0 || !slices.IsSorted(buckets) {
		panic("metrics: histogram buckets must be non-empty and ascending")
	}
	return slices.Clone(buckets)
}
