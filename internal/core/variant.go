package core

import (
	"fmt"
	"math"

	"repro/internal/dynamics"
	"repro/internal/opinion"
	"repro/internal/plurality"
	"repro/internal/rng"
)

// Registered variant names. The spec package's variant registry validates
// requests against these, parameters and engine compatibility included;
// core is reached through the spec-validated Runner and rejects only an
// unknown name.
const (
	// VariantSync is the paper's synchronous dynamic — every vertex updates
	// simultaneously each round. The default; "" resolves to it.
	VariantSync = "sync"
	// VariantAsync is the sequential-activation dynamic: one uniformly
	// random vertex updates per tick, n ticks per reported round (sweep).
	VariantAsync = "async"
	// VariantStubborn is the zealot dynamic of E15: a deterministic
	// fraction of vertices is frozen Blue and never updates, realising the
	// Sprinkling adversary in the forward dynamic.
	VariantStubborn = "stubborn"
	// VariantPlurality is the q-opinion Best-of-Three dynamic of E14.
	// Opinion 0 plays the Red role: it starts with share 1/q + delta and
	// RedWon reports whether it finished as the consensus/plurality winner;
	// the trajectory records the count of vertices NOT holding opinion 0
	// (exactly the two-party blue count at q = 2).
	VariantPlurality = "plurality"
)

// Variant selects which dynamic Run executes, plus the per-variant
// parameters. The zero value is the synchronous default.
type Variant struct {
	// Name is one of the Variant* constants; "" means VariantSync.
	Name string
	// StubbornFrac is the fraction of vertices frozen Blue, in (0, 0.5];
	// consumed only by VariantStubborn.
	StubbornFrac float64
	// Q is the opinion-alphabet size in [2, 256]; consumed only by
	// VariantPlurality.
	Q int
}

// Resolved returns the effective variant name ("" resolves to "sync").
func (v Variant) Resolved() string {
	if v.Name == "" {
		return VariantSync
	}
	return v.Name
}

// newProcess draws the initial configuration and builds the variant's
// process. Every variant derives all randomness from one rng.New(opt.Seed)
// source in a fixed order (initial configuration first, then any variant
// state, then the process seed), so a trial's trajectory stays a pure
// function of the spec — the byte-equivalence contract. Non-sync variants
// always run the general engine.
func newProcess(g Topology, delta float64, rule dynamics.Rule, opt Options) (dynamics.Dynamic, error) {
	src := rng.New(opt.Seed)
	n := g.N()
	switch opt.Variant.Resolved() {
	case VariantSync:
		init := opinion.RandomConfig(n, 0.5-delta, src)
		return dynamics.New(g, rule, init, dynamics.Options{Seed: src.Uint64(), Engine: opt.Engine})
	case VariantAsync:
		init := opinion.RandomConfig(n, 0.5-delta, src)
		return dynamics.NewAsync(g, rule, init, src.Uint64())
	case VariantStubborn:
		init := opinion.RandomConfig(n, 0.5-delta, src)
		// The zealot set is a deterministic function of the trial seed: the
		// first round(frac·n) entries of a seeded permutation, frozen Blue
		// (the E15 adversary — a Blue minority attacking a Red majority).
		count := int(math.Round(opt.Variant.StubbornFrac * float64(n)))
		stub := src.Perm(n)[:count]
		for _, v := range stub {
			init.Set(v, opinion.Blue)
		}
		return dynamics.New(g, rule, init, dynamics.Options{Seed: src.Uint64(), Engine: dynamics.EngineGeneral, Stubborn: stub})
	case VariantPlurality:
		q := opt.Variant.Q
		// share0 = 1/q + delta generalises the two-party 1/2 + delta: at
		// q = 2 the initial law of opinion 0 equals Red's.
		init := plurality.RandomBiasedConfig(n, q, 1/float64(q)+delta, src)
		tie := plurality.TieKeep
		if rule.Tie == dynamics.TieRandom {
			tie = plurality.TieRandomSample
		}
		return plurality.New(g, init, plurality.Options{Seed: src.Uint64(), Tie: tie})
	default:
		return nil, fmt.Errorf("core: unknown variant %q", opt.Variant.Name)
	}
}
