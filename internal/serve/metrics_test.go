package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/metrics"
	"repro/internal/store"
)

// scrapeMetrics GETs /metrics and returns the parsed samples keyed by
// their full sample name ("bo3_jobs_completed_total",
// `bo3_jobs_engine_total{engine="general"}`), after checking the
// content type and linting the exposition.
func scrapeMetrics(t *testing.T, base string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ContentType {
		t.Fatalf("content type = %q, want %q", ct, metrics.ContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if err := metrics.Lint(text); err != nil {
		t.Fatalf("exposition failed lint: %v", err)
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples
}

// sumFamily sums every sample of one labelled family.
func sumFamily(samples map[string]float64, name string) float64 {
	var total float64
	for k, v := range samples {
		if k == name || strings.HasPrefix(k, name+"{") {
			total += v
		}
	}
	return total
}

// TestStatsMetricsConsistency runs a mixed workload — executed, cached,
// rejected, and cancelled jobs, a sweep, its resubmission served from the
// store, an events subscriber — then asserts every /v1/stats counter
// equals its /metrics counterpart. The two are read from the same registry, so any
// disagreement means the read-through wiring regressed.
func TestStatsMetricsConsistency(t *testing.T) {
	reg := metrics.NewRegistry()
	st, err := store.Open(t.TempDir(), store.Options{Metrics: store.NewMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	arts, err := artifact.OpenDir(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	mgr := NewManager(Config{Workers: 2, Metrics: reg, Store: st, Artifacts: arts})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()
	defer mgr.Close(context.Background())

	// Executed CSR job (touches the artifact tier), then the identical
	// resubmission answered from the store.
	csr := RunRequest{
		Graph:  GraphSpec{Family: "random-regular", N: 256, D: 8, Seed: 3},
		Delta:  0.2,
		Trials: 2,
		Seed:   9,
	}
	var v JobView
	doJSON(t, http.MethodPost, ts.URL+"/v1/runs", csr, http.StatusAccepted, &v)
	pollDone(t, ts.URL, v.ID)
	doJSON(t, http.MethodPost, ts.URL+"/v1/runs", csr, http.StatusAccepted, &v)
	if got := pollDone(t, ts.URL, v.ID); got.Result == nil || !got.Result.Cached {
		t.Fatalf("resubmission not answered from the store: %+v", got.Result)
	}

	// A rejected submission.
	doJSON(t, http.MethodPost, ts.URL+"/v1/runs",
		RunRequest{Graph: GraphSpec{Family: "no-such-family"}, Trials: 1},
		http.StatusBadRequest, nil)

	// A cancel attempt on a long-running job; whether it lands as
	// cancelled or done, both views must agree.
	doJSON(t, http.MethodPost, ts.URL+"/v1/runs", RunRequest{
		Graph: GraphSpec{Family: "cycle", N: 4096}, Delta: 0,
		Trials: 2000, MaxRounds: 50, Seed: 1,
	}, http.StatusAccepted, &v)
	doJSON(t, http.MethodDelete, ts.URL+"/v1/runs/"+v.ID, nil, http.StatusOK, nil)
	pollDone(t, ts.URL, v.ID)

	// A sweep, then its identical resubmission (every cell cached).
	sweepReq := SweepRequest{
		Grid: SweepGrid{
			Graphs: []GraphSpec{{Family: "complete-virtual"}},
			NS:     []int{64, 96},
			Deltas: []float64{0.2},
			Trials: []int{2},
		},
		Seed: 11,
	}
	var sv SweepView
	doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", sweepReq, http.StatusAccepted, &sv)
	pollSweepDone(t, ts.URL, sv.ID)
	doJSON(t, http.MethodPost, ts.URL+"/v1/sweeps", sweepReq, http.StatusAccepted, &sv)
	pollSweepDone(t, ts.URL, sv.ID)

	// Workload quiesced: everything is terminal, so the two scrapes see
	// one frozen counter state (HTTP and uptime series keep moving, but
	// those have no JSON counterpart to compare).
	var stats Stats
	doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil, http.StatusOK, &stats)
	samples := scrapeMetrics(t, ts.URL)

	pairs := []struct {
		field string
		want  float64
		got   float64
	}{
		{"submitted", float64(stats.Submitted), samples["bo3_jobs_submitted_total"]},
		{"completed", float64(stats.Completed), samples["bo3_jobs_completed_total"]},
		{"failed", float64(stats.Failed), samples["bo3_jobs_failed_total"]},
		{"cancelled", float64(stats.Cancelled), samples["bo3_jobs_cancelled_total"]},
		{"rejected", float64(stats.Rejected), samples["bo3_jobs_rejected_total"]},
		{"jobs_cached", float64(stats.JobsCached), samples["bo3_jobs_cached_total"]},
		{"trials_run", float64(stats.TrialsRun), samples["bo3_trials_total"]},
		{"rounds_run", float64(stats.RoundsRun), samples["bo3_rounds_total"]},
		{"jobs_mean_field", float64(stats.JobsMeanField), samples[`bo3_jobs_engine_total{engine="mean-field"}`]},
		{"jobs_general", float64(stats.JobsGeneral), samples[`bo3_jobs_engine_total{engine="general"}`]},
		{"store_errors", float64(stats.StoreErrors), samples["bo3_store_errors_total"]},
		{"workers", float64(stats.Workers), samples["bo3_workers"]},
		{"sweeps_submitted", float64(stats.SweepsSubmitted), samples["bo3_sweeps_submitted_total"]},
		{"sweeps_completed", float64(stats.SweepsCompleted), samples["bo3_sweeps_completed_total"]},
		{"sweeps_cancelled", float64(stats.SweepsCancelled), samples["bo3_sweeps_cancelled_total"]},
		{"sweeps_rejected", float64(stats.SweepsRejected), samples["bo3_sweeps_rejected_total"]},
		{"sweep_cells_finished", float64(stats.SweepCellsFinished), samples["bo3_sweep_cells_finished_total"]},
		{"cells_cached", float64(stats.CellsCached), samples["bo3_sweep_cells_cached_total"]},
		{"events_published", float64(stats.EventsPublished), sumFamily(samples, "bo3_bus_published_total")},
		{"events_dropped", float64(stats.EventsDropped), sumFamily(samples, "bo3_bus_dropped_total")},
		{"subscribers", float64(stats.Subscribers), samples["bo3_bus_subscribers"]},
		{"graph_cache.hits", float64(stats.Cache.Hits), samples["bo3_graph_pool_hits_total"]},
		{"graph_cache.misses", float64(stats.Cache.Misses), samples["bo3_graph_pool_misses_total"]},
		{"graph_cache.evictions", float64(stats.Cache.Evictions), samples["bo3_graph_pool_evictions_total"]},
		{"graphs_artifact_hits", float64(stats.GraphsArtifactHits), samples["bo3_artifact_hits_total"]},
		{"graphs_artifact_misses", float64(stats.GraphsArtifactMisses), samples["bo3_artifact_misses_total"]},
		{"result_store.hits", float64(stats.ResultStore.Hits), samples["bo3_store_hits_total"]},
		{"result_store.misses", float64(stats.ResultStore.Misses), samples["bo3_store_misses_total"]},
		{"result_store.appends", float64(stats.ResultStore.Appends), samples["bo3_store_appends_total"]},
	}
	for _, p := range pairs {
		if p.want != p.got {
			t.Errorf("%s: /v1/stats = %v, /metrics = %v", p.field, p.want, p.got)
		}
	}
	for variant, n := range stats.JobsByVariant {
		key := fmt.Sprintf("bo3_jobs_variant_total{variant=%q}", variant)
		if got := samples[key]; got != float64(n) {
			t.Errorf("jobs_by_variant[%s]: /v1/stats = %d, /metrics = %v", variant, n, got)
		}
	}

	// Sanity on the workload itself: the mixed phases all registered.
	if stats.JobsCached < 1 || stats.Rejected < 1 || stats.CellsCached != 2 || stats.SweepsCompleted != 2 {
		t.Errorf("workload did not exercise all counters: %+v", stats)
	}
	if stats.GraphsArtifactMisses < 1 {
		t.Errorf("CSR job did not touch the artifact tier: misses = %d", stats.GraphsArtifactMisses)
	}
}

// TestMetricsCoverage asserts the exposition covers every subsystem with
// at least one latency histogram, and that the executed-workload
// histograms carry observations.
func TestMetricsCoverage(t *testing.T) {
	reg := metrics.NewRegistry()
	st, err := store.Open(t.TempDir(), store.Options{Metrics: store.NewMetrics(reg)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mgr := NewManager(Config{Workers: 1, Metrics: reg, Store: st})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()
	defer mgr.Close(context.Background())

	var v JobView
	doJSON(t, http.MethodPost, ts.URL+"/v1/runs", smallRun(5), http.StatusAccepted, &v)
	pollDone(t, ts.URL, v.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(raw)

	// One histogram per subsystem: serve (HTTP + job stages), graph pool,
	// artifact tier, bus, store, fleet.
	histograms := []string{
		"bo3_http_request_seconds",
		"bo3_job_queue_wait_seconds",
		"bo3_job_exec_seconds",
		"bo3_job_graph_seconds",
		"bo3_job_persist_seconds",
		"bo3_graph_build_seconds",
		"bo3_graph_coalesce_wait_seconds",
		"bo3_artifact_load_seconds",
		"bo3_bus_publish_seconds",
		"bo3_store_read_seconds",
		"bo3_store_write_seconds",
		"bo3_fleet_claim_seconds",
	}
	for _, h := range histograms {
		if !strings.Contains(text, "# TYPE "+h+" histogram") {
			t.Errorf("exposition missing histogram %s", h)
		}
	}

	samples := scrapeMetrics(t, ts.URL)
	// The executed job must have observed into the per-stage histograms
	// and the store append path.
	for _, h := range []string{"bo3_job_exec_seconds", "bo3_job_graph_seconds", "bo3_job_persist_seconds", "bo3_store_write_seconds", "bo3_bus_publish_seconds"} {
		if sumFamily(samples, h+"_count") == 0 {
			t.Errorf("histogram %s has no observations after an executed job", h)
		}
	}
	if samples["bo3_build_info"] == 0 && sumFamily(samples, "bo3_build_info") != 1 {
		t.Errorf("bo3_build_info not exposed as 1")
	}
}

// TestMetricsRouteLabelUsesPattern asserts the HTTP middleware labels by
// route pattern, not raw path: two different run IDs must land in one
// series, and an unregistered path in "unmatched".
func TestMetricsRouteLabelUsesPattern(t *testing.T) {
	mgr := NewManager(Config{Workers: 1})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()
	defer mgr.Close(context.Background())

	for _, path := range []string{"/v1/runs/run-000000", "/v1/runs/run-000001", "/no/such/route"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	samples := scrapeMetrics(t, ts.URL)
	if got := samples[`bo3_http_requests_total{route="GET /v1/runs/{id}",code="4xx"}`]; got != 2 {
		t.Errorf("pattern-labelled series = %v, want 2 (both IDs in one series)", got)
	}
	if got := sumFamily(samples, "bo3_http_requests_total"); got < 3 {
		t.Errorf("total http requests = %v, want >= 3", got)
	}
	found := false
	for k := range samples {
		if strings.HasPrefix(k, `bo3_http_requests_total{route="unmatched"`) {
			found = true
		}
	}
	if !found {
		t.Error("no unmatched route series for an unregistered path")
	}
}
