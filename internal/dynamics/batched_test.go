package dynamics

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/opinion"
	"repro/internal/rng"
)

// refStep replicates the pre-batching scalar update loop exactly — raw
// per-sample Uint64n draws, Source.Binomial noise flips, bit-by-bit reads
// and writes — over [0, n), drawing from src, a copy of the engine's one
// stream. The engine must reproduce it byte for byte: buffering refills
// words in blocks but consumes them in the identical order, and the noisy
// path's flip sampler draws exactly what Binomial draws, so the trajectory
// contract (fixed seed ⇒ fixed outcome) survives both optimisations.
func refStep(g Topology, rule Rule, cur, next *opinion.Config, src *rng.Source) {
	k := rule.K
	for v := 0; v < g.N(); v++ {
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
		var col opinion.Colour
		switch {
		case 2*blues > k:
			col = opinion.Blue
		case 2*blues < k:
			col = opinion.Red
		default:
			if rule.Tie == TieKeep {
				col = cur.Get(v)
			} else if src.Bernoulli(0.5) {
				col = opinion.Blue
			} else {
				col = opinion.Red
			}
		}
		next.Set(v, col)
	}
}

// TestBatchedMatchesScalarReference pins the determinism contract of the
// general engine, batched and (for noisy rules) scalar: for every rule
// shape, each round's configuration is byte-identical to the reference
// scalar implementation driven by the same seed's stream.
func TestBatchedMatchesScalarReference(t *testing.T) {
	const n, seed = 640, 77
	g := graph.RandomRegular(n, 12, rng.New(1))
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
		src := rng.NewFrom(seed, 0)
		cur := init.Clone()
		next := opinion.NewConfig(n)
		for round := 0; round < 12; round++ {
			p.Step()
			refStep(g, rule, cur, next, src)
			cur, next = next, cur
			if !p.Config().Equal(cur) {
				t.Fatalf("%s: engine diverged from scalar reference at round %d (blues %d vs %d)",
					rule.Name(), round+1, p.Config().Blues(), cur.Blues())
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

// TestNoiseDeterminism pins the noisy scalar path: noisy rules remain a
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
