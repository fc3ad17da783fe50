package spec

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

func validLimits() Limits {
	return Limits{MaxN: 1 << 22, MaxEdges: 1 << 27, MaxTrials: 4096, MaxRounds: 1 << 20}
}

// TestRunSpecJSONRoundTrip: a fully populated spec survives
// marshal→unmarshal unchanged, for every family, so specs are stable
// artifacts (files, wire bodies, cache keys).
func TestRunSpecJSONRoundTrip(t *testing.T) {
	specs := []RunSpec{
		{Graph: GraphSpec{Family: "random-regular", N: 1024, D: 16, Seed: 7}, Delta: 0.1, Trials: 8, MaxRounds: 500, Seed: 42,
			Rule: &RuleSpec{K: 2, Tie: "random", WithoutReplacement: true, Noise: 0.05}},
		{Graph: GraphSpec{Family: "gnp", N: 512, P: 0.25, Seed: 3}, Delta: 0.05},
		{Graph: GraphSpec{Family: "dense", N: 2048, Alpha: 0.7, Seed: 1}, Delta: 0.2, Trials: 2},
		{Graph: GraphSpec{Family: "sbm", A: 300, B: 200, PIn: 0.2, POut: 0.01, Seed: 9}, Delta: 0.1, Seed: 5},
		{Graph: GraphSpec{Family: "torus", Rows: 8, Cols: 16}, Delta: 0.3},
		{Graph: GraphSpec{Family: "hypercube", Dim: 10}, Delta: 0.4, Rule: &RuleSpec{K: 1}},
		{Graph: GraphSpec{Family: "complete-virtual", N: 64}, Delta: 0},
		{Graph: GraphSpec{Family: "cycle", N: 10}, Delta: 0.5},
	}
	for _, want := range specs {
		b, err := json.Marshal(want)
		if err != nil {
			t.Fatalf("%s: marshal: %v", want.Graph.Family, err)
		}
		var got RunSpec
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatalf("%s: unmarshal: %v", want.Graph.Family, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: round trip changed the spec:\nwant %+v\ngot  %+v", want.Graph.Family, want, got)
		}
		if err := got.Validate(); err != nil {
			t.Errorf("%s: round-tripped spec no longer validates: %v", want.Graph.Family, err)
		}
	}
}

// TestGraphSpecValidationParity pins the validation behaviour the serve
// wire layer used to implement itself — including the torus and hypercube
// overflow guards — now that the spec package is its single source.
func TestGraphSpecValidationParity(t *testing.T) {
	l := validLimits()
	bad := map[string]GraphSpec{
		"missing family": {},
		"unknown family": {Family: "petersen", N: 10},
		"n too small":    {Family: "cycle", N: 2},
		"n over limit":   {Family: "cycle", N: l.MaxN + 1},
		"rr d zero":      {Family: "random-regular", N: 10, D: 0},
		"rr d >= n":      {Family: "random-regular", N: 10, D: 10},
		"rr odd nd":      {Family: "random-regular", N: 9, D: 3},
		"gnp p zero":     {Family: "gnp", N: 10, P: 0},
		"gnp p over one": {Family: "gnp", N: 10, P: 1.5},
		"dense alpha":    {Family: "dense", N: 10, Alpha: 1.5},
		"torus tiny":     {Family: "torus", Rows: 2, Cols: 8},
		"torus too big":  {Family: "torus", Rows: 1 << 12, Cols: 1 << 12},
		"torus overflow": {Family: "torus", Rows: 1 << 32, Cols: 1 << 32},
		"dim too small":  {Family: "hypercube", Dim: 1},
		"dim overflow":   {Family: "hypercube", Dim: 63},
		"dim wraparound": {Family: "hypercube", Dim: 64},
		"complete edges": {Family: "complete", N: 1 << 20},
		"sbm empty side": {Family: "sbm", A: 0, B: 10, PIn: 0.5},
		"sbm bad pin":    {Family: "sbm", A: 10, B: 10, PIn: 1.5},
		"sbm bad pout":   {Family: "sbm", A: 10, B: 10, PIn: 0.5, POut: -0.1},
		"sbm all zero p": {Family: "sbm", A: 10, B: 10},
		"sbm over limit": {Family: "sbm", A: l.MaxN, B: l.MaxN, PIn: 0.5},
		"sbm edge bound": {Family: "sbm", A: 1 << 14, B: 1 << 14, PIn: 1, POut: 1},
		"gnp edge bound": {Family: "gnp", N: 1 << 20, P: 0.9},
		"rr edge bound":  {Family: "random-regular", N: 1 << 20, D: 1 << 10},
	}
	for name, s := range bad {
		if err := s.ValidateLimits(l); err == nil {
			t.Errorf("%s: spec %+v validated", name, s)
		}
	}
	good := map[string]GraphSpec{
		"complete":  {Family: "complete", N: 64},
		"virtual":   {Family: "complete-virtual", N: 1 << 22},
		"rr":        {Family: "random-regular", N: 1024, D: 3, Seed: 1},
		"gnp":       {Family: "gnp", N: 512, P: 0.1},
		"dense":     {Family: "dense", N: 512, Alpha: 0.5},
		"sbm":       {Family: "sbm", A: 100, B: 50, PIn: 0.3, POut: 0.05},
		"sbm pout":  {Family: "sbm", A: 100, B: 50, POut: 0.05},
		"cycle":     {Family: "cycle", N: 3},
		"torus":     {Family: "torus", Rows: 3, Cols: 3},
		"hypercube": {Family: "hypercube", Dim: 10},
	}
	for name, s := range good {
		if err := s.ValidateLimits(l); err != nil {
			t.Errorf("%s: spec %+v rejected: %v", name, s, err)
		}
	}
}

// TestGraphSpecKeyCanonical: parameters a family does not consume never
// split cache keys, and every consumed parameter does.
func TestGraphSpecKeyCanonical(t *testing.T) {
	a := GraphSpec{Family: "cycle", N: 10}
	b := GraphSpec{Family: "cycle", N: 10, D: 7, P: 0.3, Alpha: 0.4, Rows: 2, Dim: 5, A: 1, PIn: 0.2, Seed: 99}
	if a.Key() != b.Key() {
		t.Errorf("stray parameters split the key: %q vs %q", a.Key(), b.Key())
	}
	distinct := []GraphSpec{
		{Family: "cycle", N: 10},
		{Family: "cycle", N: 12},
		{Family: "complete", N: 10},
		{Family: "complete-virtual", N: 10},
		{Family: "random-regular", N: 64, D: 4, Seed: 1},
		{Family: "random-regular", N: 64, D: 4, Seed: 2},
		{Family: "random-regular", N: 64, D: 6, Seed: 1},
		{Family: "gnp", N: 64, P: 0.5, Seed: 1},
		{Family: "dense", N: 64, Alpha: 0.5, Seed: 1},
		{Family: "sbm", A: 32, B: 32, PIn: 0.5, POut: 0.1, Seed: 1},
		{Family: "sbm", A: 32, B: 32, PIn: 0.5, POut: 0.2, Seed: 1},
		{Family: "sbm", A: 16, B: 48, PIn: 0.5, POut: 0.1, Seed: 1},
		{Family: "torus", Rows: 4, Cols: 8},
		{Family: "torus", Rows: 8, Cols: 4},
		{Family: "hypercube", Dim: 4},
	}
	seen := map[string]GraphSpec{}
	for _, s := range distinct {
		k := s.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("distinct specs share key %q: %+v and %+v", k, prev, s)
		}
		seen[k] = s
	}
}

// TestFamiliesRegistry: the registry is sorted, includes the full paper
// set plus the extensions, and the UsesN/Seeded predicates agree with the
// per-family parameters.
func TestFamiliesRegistry(t *testing.T) {
	fams := Families()
	if !strings.Contains(strings.Join(fams, ","), "sbm") {
		t.Fatalf("registry %v is missing sbm", fams)
	}
	want := []string{"complete", "complete-virtual", "cycle", "dense", "gnp", "hypercube", "random-regular", "sbm", "torus"}
	if !reflect.DeepEqual(fams, want) {
		t.Errorf("Families() = %v, want %v", fams, want)
	}
	for _, f := range []string{"torus", "hypercube", "sbm"} {
		if FamilyUsesN(f) {
			t.Errorf("%s should not consume n", f)
		}
	}
	for _, f := range []string{"complete", "complete-virtual", "cycle", "dense", "gnp", "random-regular"} {
		if !FamilyUsesN(f) {
			t.Errorf("%s should consume n", f)
		}
	}
	for _, f := range []string{"random-regular", "gnp", "dense", "sbm"} {
		if !FamilySeeded(f) {
			t.Errorf("%s should consume the seed", f)
		}
	}
	if FamilySeeded("cycle") || FamilyUsesN("nope") || FamilySeeded("nope") {
		t.Error("predicates wrong on deterministic/unknown families")
	}
}

// TestSBMBuild: the sbm family builds through the registry with the
// declared community sizes, and the isolated-vertex guard fires.
func TestSBMBuild(t *testing.T) {
	g, err := GraphSpec{Family: "sbm", A: 60, B: 40, PIn: 0.4, POut: 0.05, Seed: 1}.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 100 || g.MinDegree() == 0 {
		t.Errorf("sbm built n=%d minDeg=%d", g.N(), g.MinDegree())
	}
	if _, err := (GraphSpec{Family: "sbm", A: 50, B: 50, PIn: 1e-9, POut: 0, Seed: 1}).Build(); err == nil {
		t.Error("near-empty sbm with isolated vertices built without error")
	}
}

// TestRunSpecValidate covers the run-level checks shared by every entry
// point.
func TestRunSpecValidate(t *testing.T) {
	l := validLimits()
	base := RunSpec{Graph: GraphSpec{Family: "cycle", N: 8}, Delta: 0.1}
	if err := base.ValidateLimits(l); err != nil {
		t.Fatalf("base spec rejected: %v", err)
	}
	for name, mut := range map[string]func(*RunSpec){
		"negative delta":  func(s *RunSpec) { s.Delta = -0.1 },
		"delta over half": func(s *RunSpec) { s.Delta = 0.6 },
		"trials negative": func(s *RunSpec) { s.Trials = -1 },
		"trials over cap": func(s *RunSpec) { s.Trials = l.MaxTrials + 1 },
		"rounds over cap": func(s *RunSpec) { s.MaxRounds = l.MaxRounds + 1 },
		"bad tie":         func(s *RunSpec) { s.Rule = &RuleSpec{Tie: "coin"} },
		"bad noise":       func(s *RunSpec) { s.Rule = &RuleSpec{Noise: 0.9} },
		"k over bound":    func(s *RunSpec) { s.Rule = &RuleSpec{K: MaxK + 1} },
		"bad graph":       func(s *RunSpec) { s.Graph.N = 1 },
	} {
		s := base
		mut(&s)
		if err := s.ValidateLimits(l); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	atBound := base
	atBound.Rule = &RuleSpec{K: MaxK}
	if err := atBound.ValidateLimits(l); err != nil {
		t.Errorf("k = MaxK rejected: %v", err)
	}
	var s RunSpec
	s = base
	s.Normalize()
	if s.Trials != 1 {
		t.Errorf("Normalize left trials = %d", s.Trials)
	}
}

// TestRunSpecRejectsNaN sets each float field of a valid spec to NaN.
// JSON cannot carry NaN, but the CLI flags and the Go API can, and a
// range check of the form x < lo || x > hi lets NaN through.
func TestRunSpecRejectsNaN(t *testing.T) {
	nan := math.NaN()
	for name, s := range map[string]RunSpec{
		"delta":         {Graph: GraphSpec{Family: "cycle", N: 8}, Delta: nan},
		"noise":         {Graph: GraphSpec{Family: "cycle", N: 8}, Delta: 0.1, Rule: &RuleSpec{Noise: nan}},
		"stubborn_frac": {Graph: GraphSpec{Family: "cycle", N: 8}, Delta: 0.1, Variant: &VariantSpec{Name: "stubborn", StubbornFrac: nan}},
		"gnp p":         {Graph: GraphSpec{Family: "gnp", N: 64, P: nan, Seed: 1}, Delta: 0.1},
		"dense alpha":   {Graph: GraphSpec{Family: "dense", N: 64, Alpha: nan, Seed: 1}, Delta: 0.1},
		"sbm pin":       {Graph: GraphSpec{Family: "sbm", A: 8, B: 8, PIn: nan, POut: 0.5, Seed: 1}, Delta: 0.1},
		"sbm pout":      {Graph: GraphSpec{Family: "sbm", A: 8, B: 8, PIn: 0.5, POut: nan, Seed: 1}, Delta: 0.1},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("%s = NaN validated", name)
		}
	}
}

// TestTrialSeedTree: trial seeds are the ChildSeed tree and differ across
// trials and run seeds.
func TestTrialSeedTree(t *testing.T) {
	s := RunSpec{Graph: GraphSpec{Family: "cycle", N: 8}, Delta: 0.1, Seed: 42}
	if s.TrialSeed(0) == s.TrialSeed(1) {
		t.Error("adjacent trials share a seed")
	}
	s2 := s
	s2.Seed = 43
	if s.TrialSeed(0) == s2.TrialSeed(0) {
		t.Error("distinct run seeds share trial seeds")
	}
	if s.TrialSeed(3) != s.TrialSeed(3) {
		t.Error("trial seeds are not deterministic")
	}
}

// TestContentKey pins the content address: a stable function of the
// canonical key, sensitive to every execution-relevant field and
// insensitive to spelling differences the canonical key already folds.
func TestContentKey(t *testing.T) {
	base := RunSpec{Graph: GraphSpec{Family: "complete-virtual", N: 100}, Delta: 0.1, Trials: 4, Seed: 9}
	if len(base.ContentKey()) != 64 {
		t.Fatalf("content key %q is not a hex sha256", base.ContentKey())
	}
	if base.ContentKey() != base.ContentKey() {
		t.Error("content key not deterministic")
	}
	// Canonical-key equivalences: defaults spelled out or omitted.
	spelled := base
	spelled.Engine = "auto"
	spelled.Rule = &RuleSpec{} // nil rule = Best-of-Three = zero RuleSpec
	if spelled.ContentKey() != base.ContentKey() {
		t.Error("spelled-out defaults change the content key")
	}
	// Every execution-relevant field splits the key.
	for name, mutate := range map[string]func(*RunSpec){
		"seed":       func(s *RunSpec) { s.Seed = 10 },
		"trials":     func(s *RunSpec) { s.Trials = 5 },
		"delta":      func(s *RunSpec) { s.Delta = 0.2 },
		"max_rounds": func(s *RunSpec) { s.MaxRounds = 7 },
		"engine":     func(s *RunSpec) { s.Engine = "general" },
		"n":          func(s *RunSpec) { s.Graph.N = 101 },
		"rule":       func(s *RunSpec) { s.Rule = &RuleSpec{K: 5} },
	} {
		mutated := base
		mutate(&mutated)
		if mutated.ContentKey() == base.ContentKey() {
			t.Errorf("changing %s kept the content key", name)
		}
	}
}

// TestGridCellCountOverflow pins the overflow-safe cell counting: axis
// sizes whose product wraps int must be reported as an error, never as a
// small count.
func TestGridCellCountOverflow(t *testing.T) {
	if n, err := safeProduct(3, 2, 2); err != nil || n != 12 {
		t.Errorf("safeProduct(3,2,2) = %d, %v", n, err)
	}
	if n, err := safeProduct(0, 5, 0); err != nil || n != 5 {
		t.Errorf("empty axes should count as 1: got %d, %v", n, err)
	}
	huge := 1 << 31
	if _, err := safeProduct(huge, huge, huge); err == nil {
		t.Error("2^93 cells did not report overflow")
	}
	if _, err := safeProduct(math.MaxInt, 2); err == nil {
		t.Error("MaxInt×2 did not report overflow")
	}
}

// TestGridExpandDeterministic: expansion order and per-cell seeds depend
// only on (grid, sweep seed).
func TestGridExpandDeterministic(t *testing.T) {
	g := Grid{
		Graphs: []GraphSpec{{Family: "cycle"}, {Family: "complete-virtual"}},
		NS:     []int{8, 16},
		Deltas: []float64{0.1, 0.2},
		Trials: []int{2},
	}
	g.Normalize()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	n, err := g.CellCount()
	if err != nil {
		t.Fatal(err)
	}
	a, b := g.Expand(7, 100), g.Expand(7, 100)
	if len(a) != n || !reflect.DeepEqual(a, b) {
		t.Fatalf("expansion not deterministic: %d cells vs count %d", len(a), n)
	}
	seeds := map[uint64]bool{}
	for i, cell := range a {
		if cell.MaxRounds != 100 {
			t.Errorf("cell %d lost the round cap", i)
		}
		if seeds[cell.Seed] {
			t.Errorf("cell %d duplicates a seed", i)
		}
		seeds[cell.Seed] = true
		if err := cell.Validate(); err != nil {
			t.Errorf("cell %d invalid: %v", i, err)
		}
	}
	// The noises axis multiplies the cell count and lands on the rule.
	ng := Grid{
		Graphs: []GraphSpec{{Family: "complete-virtual"}},
		NS:     []int{16},
		Deltas: []float64{0.1},
		Noises: []float64{0, 0.05, 0.2},
	}
	ng.Normalize()
	if err := ng.Validate(); err != nil {
		t.Fatal(err)
	}
	if n, err := ng.CellCount(); err != nil || n != 3 {
		t.Fatalf("noise grid cell count = %d, %v; want 3", n, err)
	}
	ncells := ng.Expand(7, 0)
	for i, want := range []float64{0, 0.05, 0.2} {
		if ncells[i].Rule == nil || ncells[i].Rule.Noise != want {
			t.Errorf("noise cell %d rule = %+v, want noise %v", i, ncells[i].Rule, want)
		}
		if err := ncells[i].Validate(); err != nil {
			t.Errorf("noise cell %d invalid: %v", i, err)
		}
	}
	// Distinct noise levels give distinct content keys even where the
	// %.3g-rendered rule name collides.
	x, y := ncells[1], ncells[2]
	y.Seed = x.Seed
	if x.ContentKey() == y.ContentKey() {
		t.Error("different noise levels share a content key")
	}
	y.Rule.Noise = 0.0500000001 // folds to "0.05" under %.3g
	if x.ContentKey() == y.ContentKey() {
		t.Error("near-equal noise levels fold into one content key")
	}
	// NS over a fixed-size family is rejected.
	bad := Grid{Graphs: []GraphSpec{{Family: "sbm", A: 8, B: 8, PIn: 0.5}}, NS: []int{16}, Deltas: []float64{0.1}}
	if err := bad.Validate(); err == nil {
		t.Error("ns axis over sbm validated")
	}
	// An unregistered family reports as unknown, not as "does not take n".
	unknown := Grid{Graphs: []GraphSpec{{Family: "petersen", N: 64}}, NS: []int{128}, Deltas: []float64{0.1}}
	err = unknown.Validate()
	if err == nil || !strings.Contains(err.Error(), "unknown family") {
		t.Errorf("unknown family error = %v, want an unknown-family report", err)
	}
}

// TestGridContentKey: equivalent grids (defaults spelled out or omitted)
// share a sweep content key; every execution-relevant input splits it.
func TestGridContentKey(t *testing.T) {
	base := Grid{
		Graphs: []GraphSpec{{Family: "complete-virtual"}},
		NS:     []int{16, 32},
		Deltas: []float64{0.1, 0.2},
		Trials: []int{2},
	}
	ck := base.ContentKey(7, 100)
	if len(ck) != 64 {
		t.Fatalf("grid content key %q is not a hex sha256", ck)
	}
	if base.ContentKey(7, 100) != ck {
		t.Error("grid content key not deterministic")
	}
	// Normalization is identity-preserving: the shorthand grid and its
	// normalized form describe the same cells.
	spelled := base
	spelled.Normalize()
	if spelled.ContentKey(7, 100) != ck {
		t.Error("normalized grid changed the content key")
	}
	// Seed, round cap, and every axis split the key.
	if base.ContentKey(8, 100) == ck {
		t.Error("sweep seed not in the content key")
	}
	if base.ContentKey(7, 101) == ck {
		t.Error("round cap not in the content key")
	}
	for name, mutate := range map[string]func(*Grid){
		"graphs": func(g *Grid) { g.Graphs = []GraphSpec{{Family: "cycle"}} },
		"ns":     func(g *Grid) { g.NS = []int{16} },
		"deltas": func(g *Grid) { g.Deltas = []float64{0.1} },
		"ks":     func(g *Grid) { g.Ks = []int{5} },
		"ties":   func(g *Grid) { g.Ties = []string{"random"} },
		"noises": func(g *Grid) { g.Noises = []float64{0.05} },
		"trials": func(g *Grid) { g.Trials = []int{3} },
	} {
		mutated := base
		mutate(&mutated)
		if mutated.ContentKey(7, 100) == ck {
			t.Errorf("changing %s kept the grid content key", name)
		}
	}
}

// TestRunSpecKeyCanonical: equivalent run specs (defaults applied or not)
// render the identical key; any consumed parameter splits it.
func TestRunSpecKeyCanonical(t *testing.T) {
	a := RunSpec{Graph: GraphSpec{Family: "cycle", N: 8}, Delta: 0.1, Seed: 4}
	b := a
	b.Trials = 1             // = the normalised default of a
	b.Rule = &RuleSpec{K: 3} // = the nil-rule default of a
	if a.Key() != b.Key() {
		t.Errorf("equivalent specs split the key: %q vs %q", a.Key(), b.Key())
	}
	for name, mut := range map[string]func(*RunSpec){
		"delta":  func(s *RunSpec) { s.Delta = 0.2 },
		"trials": func(s *RunSpec) { s.Trials = 2 },
		"rounds": func(s *RunSpec) { s.MaxRounds = 9 },
		"seed":   func(s *RunSpec) { s.Seed = 5 },
		"rule":   func(s *RunSpec) { s.Rule = &RuleSpec{K: 5} },
		"graph":  func(s *RunSpec) { s.Graph.N = 10 },
	} {
		c := a
		mut(&c)
		if c.Key() == a.Key() {
			t.Errorf("%s change did not split the key %q", name, a.Key())
		}
	}
}

func TestRunSpecEngineValidation(t *testing.T) {
	base := RunSpec{Graph: GraphSpec{Family: "complete-virtual", N: 64}, Delta: 0.1}

	for _, engine := range []string{"", "auto", "general"} {
		s := base
		s.Engine = engine
		if err := s.Validate(); err != nil {
			t.Errorf("engine %q rejected: %v", engine, err)
		}
	}
	s := base
	s.Engine = "mean-field"
	if err := s.Validate(); err != nil {
		t.Errorf("mean-field on complete-virtual rejected: %v", err)
	}
	s.Engine = "warp"
	if err := s.Validate(); err == nil {
		t.Error("unknown engine accepted")
	}
	s = RunSpec{Graph: GraphSpec{Family: "random-regular", N: 64, D: 8}, Delta: 0.1, Engine: "mean-field"}
	if err := s.Validate(); err == nil {
		t.Error("mean-field on random-regular accepted")
	}
}

func TestRunSpecKeyIncludesEngine(t *testing.T) {
	a := RunSpec{Graph: GraphSpec{Family: "complete-virtual", N: 64}, Delta: 0.1}
	b := a
	b.Engine = "auto"
	if a.Key() != b.Key() {
		t.Errorf("empty and auto engines key differently:\n%s\n%s", a.Key(), b.Key())
	}
	c := a
	c.Engine = "general"
	if a.Key() == c.Key() {
		t.Error("general engine keys identically to auto")
	}
}

func TestFamilyMeanField(t *testing.T) {
	if !FamilyMeanField("complete-virtual") {
		t.Error("complete-virtual not mean-field")
	}
	for _, f := range []string{"complete", "random-regular", "gnp", "cycle", "nope"} {
		if FamilyMeanField(f) {
			t.Errorf("family %q unexpectedly mean-field", f)
		}
	}
	if got := MeanFieldFamilies(); len(got) != 1 || got[0] != "complete-virtual" {
		t.Errorf("MeanFieldFamilies = %v", got)
	}
}

func TestMinDegreeEstimate(t *testing.T) {
	cases := []struct {
		spec GraphSpec
		d    int
		ok   bool
	}{
		{GraphSpec{Family: "complete", N: 10}, 9, true},
		{GraphSpec{Family: "complete-virtual", N: 10}, 9, true},
		{GraphSpec{Family: "random-regular", N: 10, D: 4}, 4, true},
		{GraphSpec{Family: "cycle", N: 10}, 2, true},
		{GraphSpec{Family: "torus", Rows: 4, Cols: 4}, 4, true},
		{GraphSpec{Family: "hypercube", Dim: 5}, 5, true},
		{GraphSpec{Family: "gnp", N: 10, P: 0.5}, 0, false},
		{GraphSpec{Family: "dense", N: 10, Alpha: 0.5}, 0, false},
		{GraphSpec{Family: "sbm", A: 5, B: 5, PIn: 0.5}, 0, false},
		{GraphSpec{Family: "nope"}, 0, false},
	}
	for _, c := range cases {
		d, ok := c.spec.MinDegreeEstimate()
		if d != c.d || ok != c.ok {
			t.Errorf("%s: MinDegreeEstimate = (%d, %v), want (%d, %v)", c.spec.Family, d, ok, c.d, c.ok)
		}
	}
}

func TestWithoutReplacementDegreeGate(t *testing.T) {
	reject := []RunSpec{
		{Graph: GraphSpec{Family: "cycle", N: 50}, Delta: 0.1, Rule: &RuleSpec{K: 3, WithoutReplacement: true}},
		{Graph: GraphSpec{Family: "random-regular", N: 50, D: 2}, Delta: 0.1, Rule: &RuleSpec{K: 3, WithoutReplacement: true}},
		{Graph: GraphSpec{Family: "hypercube", Dim: 3}, Delta: 0.1, Rule: &RuleSpec{K: 4, WithoutReplacement: true}},
		{Graph: GraphSpec{Family: "complete-virtual", N: 4}, Delta: 0.1, Rule: &RuleSpec{K: 5, WithoutReplacement: true}},
	}
	for _, s := range reject {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: without-replacement K > min degree accepted", s.Graph.Family)
		}
	}
	accept := []RunSpec{
		// Same shapes with replacement, or K within the degree, stay valid.
		{Graph: GraphSpec{Family: "cycle", N: 50}, Delta: 0.1, Rule: &RuleSpec{K: 3}},
		{Graph: GraphSpec{Family: "cycle", N: 50}, Delta: 0.1, Rule: &RuleSpec{K: 2, WithoutReplacement: true}},
		{Graph: GraphSpec{Family: "random-regular", N: 50, D: 8}, Delta: 0.1, Rule: &RuleSpec{K: 3, WithoutReplacement: true}},
		// Sampled families have no spec-determined min degree; the engine's
		// documented per-vertex fallback applies instead.
		{Graph: GraphSpec{Family: "gnp", N: 50, P: 0.5, Seed: 1}, Delta: 0.1, Rule: &RuleSpec{K: 3, WithoutReplacement: true}},
	}
	for _, s := range accept {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: valid without-replacement spec rejected: %v", s.Graph.Family, err)
		}
	}
}
