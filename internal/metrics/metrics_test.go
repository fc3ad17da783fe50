package metrics

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Idempotent re-registration returns the same underlying series.
	if got := r.Counter("jobs_total", "jobs").Value(); got != 5 {
		t.Fatalf("re-registered counter = %d, want 5", got)
	}

	g := r.Gauge("depth", "queue depth")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}

	v := r.CounterVec("by_engine", "per engine", "engine")
	v.With("general").Add(2)
	v.With("meanfield").Inc()
	v.With("general").Inc()
	vals := v.Values()
	if vals["general"] != 3 || vals["meanfield"] != 1 {
		t.Fatalf("vec values = %v", vals)
	}
}

func TestRegistrationMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "x")
	for _, tc := range []func(){
		func() { r.Gauge("x", "x") },
		func() { r.CounterVec("x", "x", "label") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on kind/label mismatch")
				}
			}()
			tc()
		}()
	}
}

func TestHistogramBucketsSumCount(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{0.01, 0.1, 1})
	obs := []float64{0.005, 0.01, 0.02, 0.5, 2, 100}
	var want float64
	for _, v := range obs {
		h.Observe(v)
		want += v
	}
	if got := h.Count(); got != int64(len(obs)) {
		t.Fatalf("count = %d, want %d", got, len(obs))
	}
	if got := h.Sum(); got != want {
		t.Fatalf("sum = %v, want %v (exact)", got, want)
	}

	// Cumulative buckets: le=0.01 → 2 (0.005, 0.01 — bounds inclusive),
	// le=0.1 → 3, le=1 → 4, +Inf → 6.
	text := expose(t, r)
	for _, line := range []string{
		`lat_bucket{le="0.01"} 2`,
		`lat_bucket{le="0.1"} 3`,
		`lat_bucket{le="1"} 4`,
		`lat_bucket{le="+Inf"} 6`,
		`lat_count 6`,
	} {
		if !strings.Contains(text, line+"\n") {
			t.Fatalf("exposition missing %q:\n%s", line, text)
		}
	}
	var sumLine string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "lat_sum ") {
			sumLine = line
			break
		}
	}
	if sumLine == "" {
		t.Fatalf("exposition missing lat_sum line:\n%s", text)
	}
	got, err := strconv.ParseFloat(strings.TrimPrefix(sumLine, "lat_sum "), 64)
	if err != nil || got != want {
		t.Fatalf("lat_sum line %q parsed to %v (err %v), want %v", sumLine, got, err, want)
	}
}

func TestHistogramVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("exec", "exec", []float64{1}, "engine", "variant")
	v.With("general", "sync").Observe(0.5)
	v.With("meanfield", "sync").Observe(2)
	text := expose(t, r)
	for _, line := range []string{
		`exec_bucket{engine="general",variant="sync",le="1"} 1`,
		`exec_bucket{engine="meanfield",variant="sync",le="+Inf"} 1`,
		`exec_bucket{engine="meanfield",variant="sync",le="1"} 0`,
		`exec_count{engine="general",variant="sync"} 1`,
	} {
		if !strings.Contains(text, line+"\n") {
			t.Fatalf("exposition missing %q:\n%s", line, text)
		}
	}
}

func TestFuncMetricsAndEscaping(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("uptime_seconds", "uptime", func() float64 { return 12.5 })
	r.CounterFunc("seq", "sequence", func() float64 { return 42 })
	r.GaugeVec("build_info", `weird "help" with \slash`, "version").With(`v1"\x` + "\n").Set(1)
	text := expose(t, r)
	for _, line := range []string{
		`uptime_seconds 12.5`,
		`seq 42`,
		`build_info{version="v1\"\\x\n"} 1`,
		`# HELP build_info weird "help" with \\slash`,
	} {
		if !strings.Contains(text, line+"\n") {
			t.Fatalf("exposition missing %q:\n%s", line, text)
		}
	}
}

// TestExpositionGolden pins the full rendering of a small fixed registry
// and line-lints it as a minimal Prometheus text-format parser would.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "b counter").Add(3)
	r.Gauge("a_gauge", "a gauge").Set(-2)
	h := r.Histogram("c_seconds", "c histogram", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)

	const want = `# HELP a_gauge a gauge
# TYPE a_gauge gauge
a_gauge -2
# HELP b_total b counter
# TYPE b_total counter
b_total 3
# HELP c_seconds c histogram
# TYPE c_seconds histogram
c_seconds_bucket{le="0.5"} 1
c_seconds_bucket{le="1"} 2
c_seconds_bucket{le="+Inf"} 2
c_seconds_sum 1
c_seconds_count 2
`
	got := expose(t, r)
	if got != want {
		t.Fatalf("golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if err := Lint(got); err != nil {
		t.Fatalf("lint: %v", err)
	}
}

func TestLintRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"orphan_sample 1\n",                        // no TYPE
		"# TYPE x counter\nx one\n",                // non-numeric value
		"# TYPE x counter\nx{le=\"0.5} 1\n",        // unterminated label value
		"# TYPE x counter\n\nx 1\n",                // blank line
		"# TYPE x summary\nx 1\n",                  // unsupported type
		"# TYPE x counter\nx_bucket{le=\"1\"} 1\n", // _bucket on a counter
		"# TYPE x counter\nx{a=\"1\",=\"2\"} 1\n",  // empty label name
	} {
		if err := Lint(bad); err == nil {
			t.Errorf("Lint accepted malformed exposition %q", bad)
		}
	}
}

// TestConcurrentUpdates is the -race stress: hammer one counter, one
// gauge, one histogram vec child set from many goroutines while scraping
// concurrently, then verify totals are exact.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits", "hits")
	g := r.Gauge("busy", "busy")
	hv := r.HistogramVec("lat", "lat", []float64{0.001, 0.01, 0.1}, "engine")

	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			engine := fmt.Sprintf("e%d", w%3)
			h := hv.With(engine)
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(0.0005)
				g.Add(-1)
			}
		}(w)
	}
	// Concurrent scrapes while writers run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done

	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	var total int64
	var sum float64
	for _, e := range []string{"e0", "e1", "e2"} {
		total += hv.With(e).Count()
		sum += hv.With(e).Sum()
	}
	if total != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", total, workers*perWorker)
	}
	want := float64(workers*perWorker) * 0.0005
	if math.Abs(sum-want) > 1e-9 {
		t.Fatalf("histogram sum = %v, want %v", sum, want)
	}
	if err := Lint(expose(t, r)); err != nil {
		t.Fatalf("lint: %v", err)
	}
}

func TestNamesOrderAndHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("z", "z")
	r.Counter("a", "a")
	names := r.Names()
	if len(names) != 2 || names[0] != "z" || names[1] != "a" {
		t.Fatalf("Names() = %v, want registration order [z a]", names)
	}
	// Exposition is sorted by name regardless of registration order.
	text := expose(t, r)
	if strings.Index(text, "# HELP a ") > strings.Index(text, "# HELP z ") {
		t.Fatalf("exposition not name-sorted:\n%s", text)
	}
}

func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return sb.String()
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("x", "x")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("x", "x", DefBuckets)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.003)
		}
	})
}

// Add moves the value by delta (negative allowed).
func (g *Gauge) Add(delta int64) { g.s.val.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.s.val.Load() }

// Sum returns the exact sum of all observations.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.s.sumBits.Load()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.s.count.Load() }
