package spec

import (
	"fmt"

	"repro/internal/dynamics"
)

// MaxK bounds RuleSpec.K. One round draws n·K samples and cancellation
// is checked only between rounds, so an unbounded K would let a single
// request hold a worker indefinitely. The largest K any grid, experiment
// or example uses is 5; 255 leaves ample room for ablations.
const MaxK = 255

// RuleSpec selects a Best-of-k protocol declaratively. The zero value (and
// a nil *RuleSpec) is the paper's Best-of-Three.
type RuleSpec struct {
	// K is the sample count, at most MaxK; 0 defaults to 3 (the paper's
	// protocol).
	K int `json:"k,omitempty"`
	// Tie is "keep" (default) or "random"; consulted only for even K.
	Tie string `json:"tie,omitempty"`
	// WithoutReplacement samples K distinct neighbours.
	WithoutReplacement bool `json:"without_replacement,omitempty"`
	// Noise is the per-sample misreporting probability in [0, 0.5].
	Noise float64 `json:"noise,omitempty"`
}

// Rule converts the spec to a dynamics.Rule, applying defaults and
// validating. A nil receiver is Best-of-Three.
func (r *RuleSpec) Rule() (dynamics.Rule, error) {
	if r == nil {
		return dynamics.BestOfThree, nil
	}
	out := dynamics.Rule{K: r.K, WithoutReplacement: r.WithoutReplacement, Noise: r.Noise}
	if out.K == 0 {
		out.K = 3
	}
	if out.K > MaxK {
		return dynamics.Rule{}, fmt.Errorf("rule: k = %d exceeds the maximum %d", out.K, MaxK)
	}
	switch r.Tie {
	case "", "keep":
		out.Tie = dynamics.TieKeep
	case "random":
		out.Tie = dynamics.TieRandom
	default:
		return dynamics.Rule{}, fmt.Errorf("rule: unknown tie rule %q (want \"keep\" or \"random\")", r.Tie)
	}
	return out, out.Validate()
}

// Validate checks the rule spec without converting it.
func (r *RuleSpec) Validate() error {
	_, err := r.Rule()
	return err
}

// Name returns the resolved protocol name, e.g. "best-of-3".
func (r *RuleSpec) Name() string {
	rule, err := r.Rule()
	if err != nil {
		return "invalid"
	}
	return rule.Name()
}
