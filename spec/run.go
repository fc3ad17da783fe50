package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/rng"
)

// RunSpec is the complete declarative description of one simulation job:
// Trials independent Best-of-k runs on one graph from an i.i.d. initial
// configuration with P(Blue) = 1/2 − Delta. It round-trips through JSON
// unchanged and is the request body of the bo3serve POST /v1/runs
// endpoint.
type RunSpec struct {
	Graph GraphSpec `json:"graph"`
	// Delta is the initial imbalance, in [0, 0.5].
	Delta float64 `json:"delta"`
	// Trials is the number of independent runs; 0 defaults to 1.
	Trials int `json:"trials,omitempty"`
	// MaxRounds caps each run; 0 uses the theory-derived default.
	MaxRounds int `json:"max_rounds,omitempty"`
	// Seed is the run seed. Trial i derives its seed as
	// rng.ChildSeed(Seed, i) — see TrialSeed — so a spec pins every
	// trial's randomness no matter which entry point executes it.
	Seed uint64 `json:"seed,omitempty"`
	// Rule selects the protocol; nil means Best-of-Three.
	Rule *RuleSpec `json:"rule,omitempty"`
	// Engine selects the round engine: "" or "auto" (default) takes the
	// O(1)-per-round mean-field fast path on families that declare
	// mean-field eligibility (complete-virtual) and the general per-vertex
	// engine otherwise; "general" forces the general engine (the opt-out
	// knob for A/B validation of the fast path); "mean-field" requires the
	// fast path and is rejected for ineligible families. The two engines
	// draw from different RNG streams, so they are distributionally — not
	// byte — equivalent; within one engine, outcomes remain a
	// deterministic function of the spec.
	Engine string `json:"engine,omitempty"`
	// Variant selects the opinion dynamic: nil (or name "sync") is the
	// paper's synchronous dynamic; "async", "stubborn", and "plurality"
	// expose the extension dynamics, with per-variant parameters validated
	// against the variant registry. Non-default variants participate in
	// Key()/ContentKey(), so the result store and sweep dedupe never
	// conflate a variant run with a plain one.
	Variant *VariantSpec `json:"variant,omitempty"`
}

// Normalize applies the documented defaults in place (Trials 0 → 1).
func (s *RunSpec) Normalize() {
	if s.Trials == 0 {
		s.Trials = 1
	}
}

// Validate checks the spec structurally (library/CLI contexts). It treats
// Trials = 0 as the default 1; call Normalize first to also persist the
// default.
func (s *RunSpec) Validate() error { return s.ValidateLimits(Unlimited()) }

// ValidateLimits checks the spec against the given limits. This is the one
// validation path shared by the library Runner, the CLIs, and the server.
func (s *RunSpec) ValidateLimits(l Limits) error {
	trials := s.Trials
	if trials == 0 {
		trials = 1
	}
	if trials < 0 || trials > l.MaxTrials {
		return fmt.Errorf("trials = %d outside [1, %d]", trials, l.MaxTrials)
	}
	if !(s.Delta >= 0 && s.Delta <= 0.5) {
		return fmt.Errorf("delta = %v outside [0, 0.5]", s.Delta)
	}
	if s.MaxRounds < 0 || s.MaxRounds > l.MaxRounds {
		return fmt.Errorf("max_rounds = %d outside [0, %d]", s.MaxRounds, l.MaxRounds)
	}
	rule, err := s.Rule.Rule()
	if err != nil {
		return err
	}
	if _, err := dynamics.ParseEngine(s.Engine); err != nil {
		return err
	}
	if err := s.validateVariant(rule); err != nil {
		return err
	}
	if s.Engine == "mean-field" && !FamilyMeanField(s.Graph.Family) {
		return fmt.Errorf("engine \"mean-field\" requires a mean-field-eligible graph family (%s), got %q",
			strings.Join(MeanFieldFamilies(), ", "), s.Graph.Family)
	}
	if rule.WithoutReplacement {
		// Sampling K distinct neighbours silently degrades to
		// with-replacement sampling at vertices with degree < K (the
		// engine's documented fallback). For families whose minimum degree
		// is known from the spec alone, reject the degenerate combination
		// up front instead of running a different protocol than requested.
		if d, known := s.Graph.MinDegreeEstimate(); known && rule.K > d {
			return fmt.Errorf("rule: without_replacement with k = %d exceeds the %s family's minimum degree %d; the engine would silently fall back to with-replacement sampling",
				rule.K, s.Graph.Family, d)
		}
	}
	return s.Graph.ValidateLimits(l)
}

// EngineMode resolves the engine name to the dynamics-level selector.
func (s RunSpec) EngineMode() (dynamics.Engine, error) { return dynamics.ParseEngine(s.Engine) }

// TrialSeed returns the deterministic seed of trial i: the ChildSeed tree
// rooted at the run seed. Every entry point derives trial seeds through
// this method, which is what makes a RunSpec's outcomes byte-identical
// across the library, the CLIs, and the server.
func (s RunSpec) TrialSeed(i int) uint64 { return rng.ChildSeed(s.Seed, uint64(i)) }

// DynamicsRule resolves the protocol with defaults applied.
func (s RunSpec) DynamicsRule() (dynamics.Rule, error) { return s.Rule.Rule() }

// Build materialises the topology (a convenience for Graph.Build).
func (s RunSpec) Build() (core.Topology, error) { return s.Graph.Build() }

// Key returns a canonical identity string for the whole run: two specs
// that would execute the identical trials render identically (the graph
// contributes its own canonical key; rule defaults are resolved first).
func (s RunSpec) Key() string {
	trials := s.Trials
	if trials == 0 {
		trials = 1
	}
	engine := s.Engine
	if engine == "" {
		engine = "auto"
	}
	parts := []string{
		s.Graph.Key(),
		kv("delta", s.Delta),
		kv("trials", trials),
		kv("max_rounds", s.MaxRounds),
		kv("seed", s.Seed),
		kv("rule", s.Rule.Name()),
		kv("engine", engine),
	}
	if s.Rule != nil && s.Rule.Noise > 0 {
		// The rule name renders noise at %.3g precision, which would fold
		// distinct noise levels into one key; append the full-precision
		// value (conditionally, so pre-existing keys are unchanged).
		parts = append(parts, kv("noise", s.Rule.Noise))
	}
	if s.VariantName() != "sync" {
		// Non-default variants extend the key (conditionally, like noise,
		// so every pre-variant key is unchanged): the fragment carries the
		// name plus exactly the parameters the variant consumes, which is
		// what keeps a stubborn or plurality run from ever being answered
		// by a plain run's store record.
		parts = append(parts, kv("variant", s.Variant.key()))
	}
	return strings.Join(parts, "|")
}

// ContentKey returns the content address of the run: the hex SHA-256 of
// the canonical Key. Because trial outcomes are a pure function of the
// canonical spec (seed, trials, engine, and round cap included), two runs
// with equal content keys execute identical trials — which is what lets
// bo3serve's result store replay a recorded result instead of recomputing
// it, and lets bo3store verify audit any record offline.
func (s RunSpec) ContentKey() string {
	sum := sha256.Sum256([]byte(s.Key()))
	return hex.EncodeToString(sum[:])
}
