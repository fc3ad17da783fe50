package serve

import (
	"sync"
	"testing"
)

func cycleSpec(n int) GraphSpec { return GraphSpec{Family: "cycle", N: n} }

func TestCacheHitOnSecondGet(t *testing.T) {
	c := NewGraphCache(4)
	g1, hit, err := c.Get(cycleSpec(10))
	if err != nil || hit {
		t.Fatalf("first get: hit = %v, err = %v", hit, err)
	}
	g2, hit, err := c.Get(cycleSpec(10))
	if err != nil || !hit {
		t.Fatalf("second get: hit = %v, err = %v", hit, err)
	}
	if g1 != g2 {
		t.Error("second get returned a different graph instance")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Size != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, size 1", s)
	}
}

func TestCacheKeyCanonicalisation(t *testing.T) {
	// Family-irrelevant parameters must not split entries: a stray d, p,
	// or seed on a deterministic family builds the identical graph.
	a := GraphSpec{Family: "cycle", N: 10}
	b := GraphSpec{Family: "cycle", N: 10, D: 7, P: 0.3, Seed: 99}
	if a.Key() != b.Key() {
		t.Errorf("keys differ: %q vs %q", a.Key(), b.Key())
	}
	// Distinct parameters must split.
	if cycleSpec(10).Key() == cycleSpec(12).Key() {
		t.Error("distinct specs share a key")
	}
	c := GraphSpec{Family: "random-regular", N: 64, D: 4, Seed: 1}
	d := GraphSpec{Family: "random-regular", N: 64, D: 4, Seed: 2}
	if c.Key() == d.Key() {
		t.Error("distinct generator seeds share a key")
	}
}

func TestCacheEvictionLRU(t *testing.T) {
	c := NewGraphCache(2)
	for _, n := range []int{10, 11} {
		if _, _, err := c.Get(cycleSpec(n)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch 10 so 11 is the LRU victim.
	if _, hit, _ := c.Get(cycleSpec(10)); !hit {
		t.Fatal("expected hit on resident entry")
	}
	if _, _, err := c.Get(cycleSpec(12)); err != nil {
		t.Fatal(err)
	}
	if !c.Contains(cycleSpec(10)) || c.Contains(cycleSpec(11)) || !c.Contains(cycleSpec(12)) {
		t.Errorf("LRU eviction wrong: 10 in = %v, 11 in = %v, 12 in = %v",
			c.Contains(cycleSpec(10)), c.Contains(cycleSpec(11)), c.Contains(cycleSpec(12)))
	}
	if s := c.Stats(); s.Evictions != 1 || s.Size != 2 {
		t.Errorf("stats = %+v, want 1 eviction at size 2", s)
	}
}

func TestCacheCoalescesConcurrentBuilds(t *testing.T) {
	c := NewGraphCache(4)
	const waiters = 16
	got := make([]any, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g, _, err := c.Get(GraphSpec{Family: "random-regular", N: 256, D: 8, Seed: 3})
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = g
		}(i)
	}
	wg.Wait()
	for i := 1; i < waiters; i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent gets returned distinct graph instances; build was not coalesced")
		}
	}
}

func TestCacheBuildErrorNotCached(t *testing.T) {
	c := NewGraphCache(4)
	bad := GraphSpec{Family: "gnp", N: 50, P: 1e-9, Seed: 1} // isolated vertices
	if _, _, err := c.Get(bad); err == nil {
		t.Fatal("expected build error for near-empty gnp")
	}
	if c.Contains(bad) {
		t.Error("failed build was cached")
	}
}

// Cache exposes the graph pool (for stats and tests).
func (m *Manager) Cache() *GraphCache { return m.cache }

// Contains reports whether the key is resident, without touching LRU order
// or counters. Exposed for tests.
func (c *GraphCache) Contains(spec GraphSpec) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[spec.Key()]
	return ok
}
