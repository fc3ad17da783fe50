package spec

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/dynamics"
)

// VariantSpec selects which opinion dynamic a RunSpec executes, plus the
// variant's own parameters. Nil (or Name "" / "sync") is the paper's
// synchronous dynamic; the other registered variants expose the extension
// dynamics end to end (library, CLIs, server, store):
//
//	{"name": "async"}                            sequential activation (E18)
//	{"name": "stubborn", "stubborn_frac": 0.05}  frozen Blue zealots (E15)
//	{"name": "plurality", "q": 5}                q-opinion Best-of-3 (E14)
//
// Like the engine knob, the variant participates in Key()/ContentKey()
// (only when non-default, so pre-existing keys are unchanged): a stubborn
// run is never answered from a plain run's store record.
type VariantSpec struct {
	// Name is a registered variant: "sync" (default), "async", "stubborn",
	// or "plurality". See Variants().
	Name string `json:"name"`
	// StubbornFrac is the fraction of vertices frozen Blue, in (0, 0.5].
	// Required by "stubborn", rejected elsewhere.
	StubbornFrac float64 `json:"stubborn_frac,omitempty"`
	// Q is the opinion-alphabet size, in [2, 256]. Required by
	// "plurality", rejected elsewhere. Opinion 0 plays the Red role with
	// initial share 1/q + delta.
	Q int `json:"q,omitempty"`
}

// variantDef is one registry entry: the per-variant parameter/rule
// validation and the canonical key fragment. The registry mirrors the
// graph-family registry in graph.go — names are validated, parameters are
// checked per variant, and unknown names fail loudly.
type variantDef struct {
	name string
	// validate checks the variant parameters and the resolved protocol
	// rule (some variants implement only part of the rule surface).
	validate func(v VariantSpec, rule dynamics.Rule) error
	// keyParams renders the parameters the variant consumes into canonical
	// key fragments; stray parameters are rejected by validate, never
	// silently folded into a key.
	keyParams func(v VariantSpec) []string
}

var variantDefs = map[string]*variantDef{}

func registerVariant(d *variantDef) {
	if _, dup := variantDefs[d.name]; dup {
		panic("spec: duplicate variant " + d.name)
	}
	variantDefs[d.name] = d
}

func init() {
	noParams := func(VariantSpec) []string { return nil }
	// rejectStray fails on parameters the variant does not consume, so a
	// typo like {"name": "async", "q": 5} surfaces instead of silently
	// running a different dynamic than the caller imagined.
	rejectStray := func(name string, v VariantSpec, frac, q bool) error {
		if !frac && v.StubbornFrac != 0 {
			return fmt.Errorf("variant: stubborn_frac is only consumed by the stubborn variant, not %q", name)
		}
		if !q && v.Q != 0 {
			return fmt.Errorf("variant: q is only consumed by the plurality variant, not %q", name)
		}
		return nil
	}
	registerVariant(&variantDef{
		name: core.VariantSync,
		validate: func(v VariantSpec, _ dynamics.Rule) error {
			return rejectStray(core.VariantSync, v, false, false)
		},
		keyParams: noParams,
	})
	registerVariant(&variantDef{
		name: core.VariantAsync,
		validate: func(v VariantSpec, rule dynamics.Rule) error {
			if err := rejectStray(core.VariantAsync, v, false, false); err != nil {
				return err
			}
			if rule.WithoutReplacement {
				return fmt.Errorf("variant: async does not implement without-replacement sampling")
			}
			return nil
		},
		keyParams: noParams,
	})
	registerVariant(&variantDef{
		name: core.VariantStubborn,
		validate: func(v VariantSpec, _ dynamics.Rule) error {
			if err := rejectStray(core.VariantStubborn, v, true, false); err != nil {
				return err
			}
			if !(v.StubbornFrac > 0 && v.StubbornFrac <= 0.5) {
				return fmt.Errorf("variant: stubborn requires stubborn_frac in (0, 0.5], got %v", v.StubbornFrac)
			}
			return nil
		},
		keyParams: func(v VariantSpec) []string { return []string{kv("stubborn_frac", v.StubbornFrac)} },
	})
	registerVariant(&variantDef{
		name: core.VariantPlurality,
		validate: func(v VariantSpec, rule dynamics.Rule) error {
			if err := rejectStray(core.VariantPlurality, v, false, true); err != nil {
				return err
			}
			if v.Q < 2 || v.Q > 256 {
				return fmt.Errorf("variant: plurality requires q in [2, 256], got %d", v.Q)
			}
			// The q-opinion engine is hardwired Best-of-Three; only the tie
			// rule carries over (keep → TieKeep, random → TieRandomSample).
			if rule.K != 3 {
				return fmt.Errorf("variant: plurality implements only k = 3 (Best-of-Three), got k = %d", rule.K)
			}
			if rule.Noise > 0 {
				return fmt.Errorf("variant: plurality does not implement per-sample noise")
			}
			if rule.WithoutReplacement {
				return fmt.Errorf("variant: plurality does not implement without-replacement sampling")
			}
			return nil
		},
		keyParams: func(v VariantSpec) []string { return []string{kv("q", v.Q)} },
	})
}

// Variants returns the registered variant names, sorted. CI diffs this
// list (via internal/tools/registry) against the variant table in
// docs/API.md.
func Variants() []string {
	names := make([]string, 0, len(variantDefs))
	for name := range variantDefs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// variantFor resolves a (possibly nil) VariantSpec to its registry entry;
// nil and "" resolve to the synchronous default.
func variantFor(v *VariantSpec) (*variantDef, error) {
	name := core.VariantSync
	if v != nil && v.Name != "" {
		name = v.Name
	}
	def, ok := variantDefs[name]
	if !ok {
		return nil, fmt.Errorf("variant: unknown variant %q (registered: %s)", name, strings.Join(Variants(), ", "))
	}
	return def, nil
}

// key renders the variant's canonical key fragment: the resolved name plus
// the parameters the variant consumes, e.g. "stubborn,stubborn_frac=0.05".
func (v VariantSpec) key() string {
	def, err := variantFor(&v)
	if err != nil {
		// Unknown names never validate, so they never reach a stored key;
		// render them verbatim so even an unvalidated Key() is total.
		return v.Name
	}
	return strings.Join(append([]string{def.name}, def.keyParams(v)...), ",")
}

// VariantName resolves the spec's effective variant name ("sync" when the
// field is nil or names the default).
func (s RunSpec) VariantName() string {
	if s.Variant == nil || s.Variant.Name == "" {
		return core.VariantSync
	}
	return s.Variant.Name
}

// CoreVariant converts the spec's variant selection to the core dispatch
// value.
func (s RunSpec) CoreVariant() core.Variant {
	v := core.Variant{Name: s.VariantName()}
	if s.Variant != nil {
		v.StubbornFrac = s.Variant.StubbornFrac
		v.Q = s.Variant.Q
	}
	return v
}

// validateVariant resolves the variant against the registry and checks its
// parameters and engine compatibility: only the synchronous default may run
// the mean-field fast path (frozen vertices, sequential activation, and
// q > 2 opinions all break the exchangeable-blue-count model the fast path
// depends on).
func (s *RunSpec) validateVariant(rule dynamics.Rule) error {
	def, err := variantFor(s.Variant)
	if err != nil {
		return err
	}
	if def.name != core.VariantSync && s.Engine == "mean-field" {
		return fmt.Errorf("variant: engine \"mean-field\" supports only the synchronous default dynamic, not variant %q", def.name)
	}
	var v VariantSpec
	if s.Variant != nil {
		v = *s.Variant
	}
	return def.validate(v, rule)
}
