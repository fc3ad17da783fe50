package serve

import (
	"context"
	"testing"

	"repro/internal/store"
)

// BenchmarkSubmitStoreHit measures the memoised submit path: a job whose
// content key is already recorded is answered with one index lookup and
// one segment read, never touching the worker pool. This is the hot path
// a store-backed server takes for every repeated spec; the CI bench smoke
// (-benchtime=1x) keeps it compiling and running, and perfbench's
// jobs-open workload measures the same path end-to-end over HTTP. Each
// case first fills the retention table, so that every timed submission
// also prunes one job, as on a long-lived server; the default retention
// (1024) is the server's.
func BenchmarkSubmitStoreHit(b *testing.B) {
	for _, c := range []struct {
		name      string
		retention int
	}{{"retention=64", 64}, {"retention=default", 0}} {
		b.Run(c.name, func(b *testing.B) { benchSubmitStoreHit(b, c.retention) })
	}
}

func benchSubmitStoreHit(b *testing.B, retention int) {
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	m := NewManager(Config{Workers: 2, Retention: retention, Store: st})
	defer m.Close(context.Background())

	req := RunRequest{Graph: GraphSpec{Family: "complete-virtual", N: 256}, Delta: 0.2, Trials: 4, Seed: 17}
	v, err := m.Submit(req)
	if err != nil {
		b.Fatal(err)
	}
	for {
		cur, ok := m.Get(v.ID)
		if !ok {
			b.Fatal("warmup job disappeared")
		}
		if cur.State == StateDone {
			break
		}
		if cur.State == StateFailed || cur.State == StateCancelled {
			b.Fatalf("warmup job %s: %s", v.ID, cur.Error)
		}
	}
	submitHit := func(i int) {
		hit, err := m.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		if hit.State != StateDone || hit.Result == nil || !hit.Result.Cached {
			b.Fatalf("iteration %d missed the store: %+v", i, hit.State)
		}
	}
	for i := 0; i < m.cfg.Retention; i++ {
		submitHit(-1)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submitHit(i)
	}
}
