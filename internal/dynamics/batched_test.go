package dynamics

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/opinion"
	"repro/internal/rng"
)

// refUpdate replicates the pre-batching scalar vertex update exactly —
// raw per-sample Uint64n draws, Source.Binomial noise flips, bit-by-bit
// reads — drawing from src, a copy of the engine's one stream, and
// returns v's new colour. The engine must reproduce it byte for byte:
// buffering refills words in blocks but consumes them in the identical
// order, and the flip sampler draws exactly what Binomial draws, so the
// trajectory contract (fixed seed ⇒ fixed outcome) survives both
// optimisations.
func refUpdate(g Topology, rule Rule, cur *opinion.Config, v int, src *rng.Source) opinion.Colour {
	k := rule.K
	deg := g.Degree(v)
	blues := 0
	if rule.WithoutReplacement && deg >= k {
		chosen := make([]int, 0, k)
		for i := 0; i < k; i++ {
		retry:
			idx := src.Intn(deg)
			for _, c := range chosen {
				if c == idx {
					goto retry
				}
			}
			chosen = append(chosen, idx)
			if cur.Get(g.Neighbor(v, idx)) == opinion.Blue {
				blues++
			}
		}
	} else {
		for i := 0; i < k; i++ {
			if cur.Get(g.Neighbor(v, src.Intn(deg))) == opinion.Blue {
				blues++
			}
		}
	}
	if rule.Noise > 0 {
		blues += src.Binomial(k-blues, rule.Noise) - src.Binomial(blues, rule.Noise)
	}
	switch {
	case 2*blues > k:
		return opinion.Blue
	case 2*blues < k:
		return opinion.Red
	case rule.Tie == TieKeep:
		return cur.Get(v)
	case src.Bernoulli(0.5):
		return opinion.Blue
	default:
		return opinion.Red
	}
}

// refStep is the reference synchronous round: refUpdate over [0, n) in
// order, every vertex reading cur and writing next.
func refStep(g Topology, rule Rule, cur, next *opinion.Config, src *rng.Source) {
	for v := 0; v < g.N(); v++ {
		next.Set(v, refUpdate(g, rule, cur, v, src))
	}
}

// opaqueTopology hides its topology's concrete type, so the engine falls
// back to the Topology calls for its rows.
type opaqueTopology struct{ Topology }

// TestBatchedMatchesScalarReference pins the determinism contract of the
// general engine: for every rule shape, each round's configuration is
// byte-identical to the reference scalar implementation driven by the
// same seed's stream, on CSR rows and on rows read through the Topology
// calls.
func TestBatchedMatchesScalarReference(t *testing.T) {
	const n = 640
	g := graph.RandomRegular(n, 12, rng.New(1))
	for _, topo := range []Topology{g, opaqueTopology{g}} {
		checkRoundsMatchReference(t, topo)
	}
}

func checkRoundsMatchReference(t *testing.T, g Topology) {
	t.Helper()
	const n, seed = 640, 77
	rules := []Rule{
		BestOfThree,
		Voter,
		{K: 2, Tie: TieKeep},
		{K: 2, Tie: TieRandom},
		{K: 3, WithoutReplacement: true},
		{K: 4, Tie: TieRandom, WithoutReplacement: true},
		{K: 3, Noise: 0.05},
		{K: 2, Tie: TieRandom, Noise: 0.1},
		{K: 40, Noise: 0.05},
		{K: 3, WithoutReplacement: true, Noise: 0.5},
	}
	for _, rule := range rules {
		init := opinion.RandomConfig(n, 0.45, rng.New(2))
		p, err := New(g, rule, init, Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if p.Engine() != EngineGeneral {
			t.Fatalf("%s: unexpected engine %v", rule.Name(), p.Engine())
		}
		if _, opaque := g.(opaqueTopology); opaque != (p.kern.rows.kind == rowsTopology) {
			t.Fatalf("%s on %T: rows resolved as kind %d", rule.Name(), g, p.kern.rows.kind)
		}
		src := rng.NewFrom(seed, 0)
		cur := init.Clone()
		next := opinion.NewConfig(n)
		for round := 0; round < 12; round++ {
			p.Step()
			refStep(g, rule, cur, next, src)
			cur, next = next, cur
			if !p.Config().Equal(cur) {
				t.Fatalf("%s on %T: engine diverged from scalar reference at round %d (blues %d vs %d)",
					rule.Name(), g, round+1, p.Config().Blues(), cur.Blues())
			}
		}
	}
}

// TestBatchedKnMatchesReference covers the virtual-topology sampling path
// (no neighbour slices), forcing the general engine on K_n.
func TestBatchedKnMatchesReference(t *testing.T) {
	const n, seed = 320, 31
	g := graph.NewKn(n)
	init := opinion.RandomConfig(n, 0.4, rng.New(3))
	p, err := New(g, BestOfThree, init, Options{Seed: seed, Engine: EngineGeneral})
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewFrom(seed, 0)
	cur := init.Clone()
	next := opinion.NewConfig(n)
	for round := 0; round < 10; round++ {
		p.Step()
		refStep(g, BestOfThree, cur, next, src)
		cur, next = next, cur
		if !p.Config().Equal(cur) {
			t.Fatalf("K_n general engine diverged from reference at round %d", round+1)
		}
	}
}

// unevenGraph is a connected CSR graph on n vertices with uneven degrees
// (a path through 1..n−2 plus v mod 7 random chords at each v) whose
// first and last vertices have degree 1: the first and last rows are
// one entry long.
func unevenGraph(n int, src *rng.Source) *graph.Graph {
	edges := [][2]int{{0, 1}, {n - 2, n - 1}}
	for v := 1; v < n-2; v++ {
		edges = append(edges, [2]int{v, v + 1})
	}
	for v := 1; v < n-1; v++ {
		for c := 0; c < v%7; c++ {
			if u := 1 + src.Intn(n-2); u != v {
				edges = append(edges, [2]int{v, u})
			}
		}
	}
	return graph.FromEdges(n, edges, "uneven")
}

// refSweep is the reference async sweep: up to n ticks, each drawing a
// vertex with src.Intn(n) and applying refUpdate to it in place, stopping
// at consensus. It returns the number of ticks run.
func refSweep(g Topology, rule Rule, cfg *opinion.Config, src *rng.Source) int {
	n := g.N()
	for i := 0; i < n; i++ {
		if b := cfg.Blues(); b == 0 || b == n {
			return i
		}
		v := src.Intn(n)
		cfg.Set(v, refUpdate(g, rule, cfg, v, src))
	}
	return n
}

// TestAsyncMatchesScalarReference is the async twin of
// TestBatchedMatchesScalarReference: after every sweep, the async
// process's configuration and cached blue count equal the reference
// sweep's driven by the same seed's raw stream, for every async rule
// shape, on the virtual complete graph, on CSR rows of uneven degree
// (where Step prefetches rows, the one-entry rows at both ends
// included), and on rows read through the Topology calls. A sweep runs
// 640 ticks of 2 to 42 words, so each crosses several 256-word buffer
// refills; one case starts next to consensus so that its first sweep is
// cut short there.
func TestAsyncMatchesScalarReference(t *testing.T) {
	const n, seed = 640, 91
	uneven := unevenGraph(n, rng.New(5))
	topos := []Topology{graph.NewKn(n), uneven, opaqueTopology{uneven}}
	type tc struct {
		rule  Rule
		pBlue float64
	}
	cases := []tc{
		{BestOfThree, 0.45},
		{BestOfThree, 0.01},
		{Voter, 0.45},
		{Rule{K: 2, Tie: TieKeep}, 0.45},
		{Rule{K: 2, Tie: TieRandom}, 0.45},
		{Rule{K: 3, Noise: 0.05}, 0.45},
		{Rule{K: 2, Tie: TieRandom, Noise: 0.1}, 0.45},
		{Rule{K: 40, Noise: 0.05}, 0.45},
	}
	cutShort := 0
	for _, g := range topos {
		for _, c := range cases {
			init := opinion.RandomConfig(n, c.pBlue, rng.New(2))
			a, err := NewAsync(g, c.rule, init, seed)
			if err != nil {
				t.Fatal(err)
			}
			src := rng.New(seed)
			cfg := init.Clone()
			for sweep := 1; sweep <= 8 && !a.Consensus(); sweep++ {
				a.Step()
				if ticks := refSweep(g, c.rule, cfg, src); ticks < n {
					cutShort++
				}
				if !a.cfg.Equal(cfg) || a.Blues() != cfg.Blues() {
					t.Fatalf("%s from pBlue %v on %T: async diverged from the reference at sweep %d (blues %d, cached %d, reference %d)",
						c.rule.Name(), c.pBlue, g, sweep, a.cfg.Blues(), a.Blues(), cfg.Blues())
				}
			}
		}
	}
	if cutShort == 0 {
		t.Fatal("no sweep was cut short at consensus")
	}
}

// TestNoiseDeterminism pins the noisy round: noisy rules remain a
// deterministic function of the seed.
func TestNoiseDeterminism(t *testing.T) {
	g := graph.RandomRegular(256, 8, rng.New(4))
	cfg := opinion.RandomConfig(256, 0.4, rng.New(5))
	run := func() []int {
		p, err := New(g, Rule{K: 3, Noise: 0.05}, cfg, Options{Seed: 6})
		if err != nil {
			t.Fatal(err)
		}
		return runTo(t, p, 30).BlueTrajectory
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("noisy trajectories diverge at round %d", i)
		}
	}
}
