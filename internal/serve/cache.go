package serve

import (
	"container/list"
	"errors"
	"sync"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// GraphCache is an LRU pool of built topologies keyed by GraphSpec.Key().
// Sweeps typically hammer one (family, n, d, seed) point with many (δ,
// rule, trials) variations; the expensive generator path — random-regular
// pairing-model retries, G(n,p) sampling — then runs once per topology
// instead of once per job.
//
// Concurrent requests for the same key are coalesced: one caller builds,
// the rest wait for its result, so a burst of identical submissions cannot
// stampede the generator. Built graphs are immutable (the engine only
// reads them), so a single shared instance serves any number of jobs.
type GraphCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List               // front = most recently used
	items    map[string]*list.Element // key -> *entry element
	building map[string]*buildCall

	// mx holds the pool's instruments (counters and latency histograms);
	// NewGraphCache starts it on a private registry so a bare pool still
	// counts, and instrument() moves it onto the shared one before serving.
	mx *cacheMetrics

	// artifacts is the optional disk tier under the in-memory pool
	// (bo3serve -artifact-dir): a cold build checks the artifact directory
	// before invoking the generator and writes through on a miss, so a
	// preprocessed (or fleet-peer-built) topology costs one checksummed
	// file read instead of a full generator run. Nil = disabled.
	artifacts *artifact.Dir
}

// cacheMetrics is the graph pool's instrument bundle: the in-memory LRU
// tier, the build/coalesce paths behind a miss, and the disk artifact
// tier below it.
type cacheMetrics struct {
	hits      *metrics.Counter
	misses    *metrics.Counter
	evictions *metrics.Counter

	buildSeconds    *metrics.Histogram // generator runs
	coalesceSeconds *metrics.Histogram // waits on another caller's build

	artifactHits   *metrics.Counter
	artifactMisses *metrics.Counter
	loadSeconds    *metrics.Histogram // artifact file reads (hit or not)
}

func newCacheMetrics(reg *metrics.Registry) *cacheMetrics {
	return &cacheMetrics{
		hits:      reg.Counter("bo3_graph_pool_hits_total", "Graph requests served from the in-memory pool."),
		misses:    reg.Counter("bo3_graph_pool_misses_total", "Graph requests that missed the in-memory pool (coalesced waiters included)."),
		evictions: reg.Counter("bo3_graph_pool_evictions_total", "Graphs evicted from the in-memory pool by its capacity bound."),

		buildSeconds:    reg.Histogram("bo3_graph_build_seconds", "Generator build time for one topology (artifact write-through included).", metrics.DefBuckets),
		coalesceSeconds: reg.Histogram("bo3_graph_coalesce_wait_seconds", "Time a graph request waited on a concurrent build of the same key.", metrics.DefBuckets),

		artifactHits:   reg.Counter("bo3_artifact_hits_total", "Graph builds served from the disk artifact tier."),
		artifactMisses: reg.Counter("bo3_artifact_misses_total", "CSR builds that missed the disk artifact tier (and were written through)."),
		loadSeconds:    reg.Histogram("bo3_artifact_load_seconds", "Artifact file load time (read, decode, checksum).", metrics.DefBuckets),
	}
}

type entry struct {
	key string
	g   core.Topology
}

// buildCall coalesces concurrent builds of one key.
type buildCall struct {
	done chan struct{}
	g    core.Topology
	err  error
}

// CacheStats is a counter snapshot.
type CacheStats struct {
	Size      int   `json:"size"`
	Capacity  int   `json:"capacity"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

// NewGraphCache returns a pool holding at most capacity graphs (minimum 1).
func NewGraphCache(capacity int) *GraphCache {
	if capacity < 1 {
		capacity = 1
	}
	return &GraphCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
		building: make(map[string]*buildCall),
		mx:       newCacheMetrics(metrics.NewRegistry()),
	}
}

// instrument re-registers the pool's instruments on reg (NewManager calls
// it with the shared registry before any Get) and adds the pool-size
// gauge. Counts accumulated on the private registry are discarded — call
// before serving.
func (c *GraphCache) instrument(reg *metrics.Registry) {
	c.mx = newCacheMetrics(reg)
	reg.GaugeFunc("bo3_graph_pool_size", "Graphs resident in the in-memory pool.", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.ll.Len())
	})
}

// Get returns the graph for the spec, building it on a miss. The second
// return reports whether the graph came from the pool (true) or was built
// by this call or a concurrent one (false).
func (c *GraphCache) Get(spec GraphSpec) (core.Topology, bool, error) {
	key := spec.Key()

	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.mx.hits.Inc()
		g := el.Value.(*entry).g
		c.mu.Unlock()
		return g, true, nil
	}
	c.mx.misses.Inc()
	if call, ok := c.building[key]; ok {
		// Someone else is already building this key; wait for them.
		c.mu.Unlock()
		start := time.Now()
		<-call.done
		c.mx.coalesceSeconds.ObserveSince(start)
		return call.g, false, call.err
	}
	call := &buildCall{done: make(chan struct{})}
	c.building[key] = call
	c.mu.Unlock()

	call.g, call.err = c.buildOrLoad(spec, key)
	close(call.done)

	c.mu.Lock()
	delete(c.building, key)
	if call.err == nil {
		c.insert(key, call.g)
	}
	c.mu.Unlock()
	return call.g, false, call.err
}

// UseArtifacts attaches a disk artifact directory as the tier below the
// in-memory pool. Call before serving; nil detaches.
func (c *GraphCache) UseArtifacts(d *artifact.Dir) { c.artifacts = d }

// buildOrLoad materialises the topology for one coalesced cache miss:
// from the artifact directory when an artifact for the key exists and
// passes its checksums, otherwise via the spec's generator, writing the
// freshly built CSR back through to disk. Virtual topologies (no CSR
// arrays) always take the generator path and touch neither disk nor the
// artifact counters — they are O(1) to rebuild. Corrupt artifacts are
// deleted by Load and silently rebuilt: a damaged disk tier degrades to
// the generator path, never to an error. A newer-format artifact
// (ErrVersion, written by an upgraded fleet peer) is also rebuilt
// in-process but neither deleted nor overwritten: write-through would
// replace the peer's file with this binary's older format and the two
// fleet halves would churn the shared key against each other.
func (c *GraphCache) buildOrLoad(spec GraphSpec, key string) (core.Topology, error) {
	newerFormat := false
	if c.artifacts != nil {
		start := time.Now()
		a, err := c.artifacts.Load(key)
		c.mx.loadSeconds.ObserveSince(start)
		if err == nil {
			c.mx.artifactHits.Inc()
			return a.Graph, nil
		}
		newerFormat = errors.Is(err, artifact.ErrVersion)
	}
	start := time.Now()
	g, err := spec.Build()
	c.mx.buildSeconds.ObserveSince(start)
	if err != nil || c.artifacts == nil {
		return g, err
	}
	if cg, ok := g.(*graph.Graph); ok {
		c.mx.artifactMisses.Inc()
		// Best-effort write-through: the graph is correct whether or not
		// it was persisted, and a concurrent peer writing the same key
		// produces identical bytes, so last-rename-wins is harmless.
		if !newerFormat {
			_, _ = c.artifacts.Store(artifact.New(key, cg))
		}
	}
	return g, nil
}

// ArtifactStats returns the disk-tier counters: loads served from the
// artifact directory and CSR builds that missed it (and were written
// through). Both are zero when no directory is attached.
func (c *GraphCache) ArtifactStats() (hits, misses int64) {
	return c.mx.artifactHits.Value(), c.mx.artifactMisses.Value()
}

// insert adds the entry and evicts from the LRU tail; callers hold c.mu.
func (c *GraphCache) insert(key string, g core.Topology) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*entry).g = g
		return
	}
	c.items[key] = c.ll.PushFront(&entry{key: key, g: g})
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*entry).key)
		c.mx.evictions.Inc()
	}
}

// Stats returns a counter snapshot.
func (c *GraphCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Size:      c.ll.Len(),
		Capacity:  c.capacity,
		Hits:      c.mx.hits.Value(),
		Misses:    c.mx.misses.Value(),
		Evictions: c.mx.evictions.Value(),
	}
}
