package dynamics

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/opinion"
	"repro/internal/rng"
)

func TestEngineDispatch(t *testing.T) {
	kn := graph.NewKn(64)
	csr := graph.RandomRegular(64, 8, rng.New(1))
	init := opinion.RandomConfig(64, 0.4, rng.New(2))

	p, err := New(kn, BestOfThree, init, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p.Engine() != EngineMeanField {
		t.Errorf("auto on Kn resolved %v, want mean-field", p.Engine())
	}
	p, err = New(kn, BestOfThree, init, Options{Seed: 3, Engine: EngineGeneral})
	if err != nil {
		t.Fatal(err)
	}
	if p.Engine() != EngineGeneral {
		t.Errorf("forced general resolved %v", p.Engine())
	}
	p, err = New(csr, BestOfThree, init, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if p.Engine() != EngineGeneral {
		t.Errorf("auto on CSR resolved %v, want general", p.Engine())
	}
	if _, err := New(csr, BestOfThree, init, Options{Seed: 3, Engine: EngineMeanField}); err == nil {
		t.Error("forced mean-field on a CSR graph not rejected")
	}
}

func TestParseEngine(t *testing.T) {
	for s, want := range map[string]Engine{"": EngineAuto, "auto": EngineAuto, "general": EngineGeneral, "mean-field": EngineMeanField} {
		got, err := ParseEngine(s)
		if err != nil || got != want {
			t.Errorf("ParseEngine(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseEngine("warp"); err == nil {
		t.Error("unknown engine accepted")
	}
	if got := EngineMeanField.String(); got != "mean-field" {
		t.Errorf("String = %q", got)
	}
}

func TestMeanFieldConsensusAbsorbing(t *testing.T) {
	n := 128
	kn := graph.NewKn(n)
	for _, blues := range []int{0, n} {
		cfg := opinion.NewConfig(n)
		if blues == n {
			cfg.FillBlue()
		}
		p, err := New(kn, BestOfThree, cfg, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			p.Step()
		}
		if got := p.Blues(); got != blues {
			t.Errorf("absorbed state b=%d drifted to %d", blues, got)
		}
		if !p.Consensus() || (p.Majority() == opinion.Blue) != (blues == n) {
			t.Errorf("Consensus() = %v, Majority() = %v from b=%d", p.Consensus(), p.Majority(), blues)
		}
	}
}

// TestAdoptBlueProbVoter checks the closed form for k = 1: a holder
// adopts Blue exactly when its single sample is blue (after noise).
func TestAdoptBlueProbVoter(t *testing.T) {
	n, b := 100, 37
	kn := graph.NewKn(n)
	mk := func(noise float64) *Process {
		p, err := New(kn, Rule{K: 1, Noise: noise}, opinion.NewConfig(n), Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	deg := float64(n - 1)
	p0 := mk(0)
	if got, want := p0.adoptBlueProb(b, false), float64(b)/deg; math.Abs(got-want) > 1e-12 {
		t.Errorf("red voter adopt = %v, want %v", got, want)
	}
	if got, want := p0.adoptBlueProb(b, true), float64(b-1)/deg; math.Abs(got-want) > 1e-12 {
		t.Errorf("blue voter adopt = %v, want %v", got, want)
	}
	eta := 0.1
	pn := mk(eta)
	q := float64(b)/deg*(1-eta) + (1-float64(b)/deg)*eta
	if got := pn.adoptBlueProb(b, false); math.Abs(got-q) > 1e-12 {
		t.Errorf("noisy red voter adopt = %v, want %v", got, q)
	}
}

// TestAdoptBlueProbBestOfThree checks k = 3 against a direct binomial
// enumeration independent of stats.BinomialTail.
func TestAdoptBlueProbBestOfThree(t *testing.T) {
	n, b := 50, 20
	kn := graph.NewKn(n)
	p, err := New(kn, BestOfThree, opinion.NewConfig(n), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := float64(b) / float64(n-1)
	want := 3*q*q*(1-q) + q*q*q // exactly 2 or 3 blue samples
	if got := p.adoptBlueProb(b, false); math.Abs(got-want) > 1e-12 {
		t.Errorf("best-of-3 adopt = %v, want %v", got, want)
	}
}

// TestAdoptBlueProbTieRules checks even k: a 1-1 split resolves by the
// tie rule.
func TestAdoptBlueProbTieRules(t *testing.T) {
	n, b := 40, 15
	kn := graph.NewKn(n)
	q := float64(b) / float64(n-1)
	qb := float64(b-1) / float64(n-1)
	pTie := 2 * q * (1 - q)
	pBoth := q * q

	mk := func(tie TieRule) *Process {
		p, err := New(kn, Rule{K: 2, Tie: tie}, opinion.NewConfig(n), Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// TieRandom, red holder: both blue, or tie and the coin lands blue.
	if got, want := mk(TieRandom).adoptBlueProb(b, false), pBoth+0.5*pTie; math.Abs(got-want) > 1e-12 {
		t.Errorf("tie-random red adopt = %v, want %v", got, want)
	}
	// TieKeep, red holder: only both-blue flips it.
	if got := mk(TieKeep).adoptBlueProb(b, false); math.Abs(got-pBoth) > 1e-12 {
		t.Errorf("tie-keep red adopt = %v, want %v", got, pBoth)
	}
	// TieKeep, blue holder: stays blue on both-blue or tie (self-excluded
	// counts).
	pTieB := 2 * qb * (1 - qb)
	if got, want := mk(TieKeep).adoptBlueProb(b, true), qb*qb+pTieB; math.Abs(got-want) > 1e-12 {
		t.Errorf("tie-keep blue stay = %v, want %v", got, want)
	}
}

// TestAdoptBlueProbWithoutReplacement checks the hypergeometric branch for
// k = 2 on a tiny instance by enumerating ordered distinct pairs.
func TestAdoptBlueProbWithoutReplacement(t *testing.T) {
	n, b := 6, 3
	kn := graph.NewKn(n)
	p, err := New(kn, Rule{K: 2, Tie: TieRandom, WithoutReplacement: true}, opinion.NewConfig(n), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Red holder: 5 neighbours, 3 blue. P(both blue) = C(3,2)/C(5,2) = 3/10;
	// P(split) = 3·2/C(5,2) = 6/10; adopt = 3/10 + 0.5·6/10.
	want := 0.3 + 0.5*0.6
	if got := p.adoptBlueProb(b, false); math.Abs(got-want) > 1e-12 {
		t.Errorf("no-replacement adopt = %v, want %v", got, want)
	}
	// k > degree falls back to with-replacement, mirroring the general
	// engine.
	pBig, err := New(graph.NewKn(3), Rule{K: 5, WithoutReplacement: true}, opinion.NewConfig(3), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := 1.0 / 2.0 // b=1 of deg=2
	wantBig := 0.0
	for j := 3; j <= 5; j++ {
		wantBig += float64(choose(5, j)) * math.Pow(q, float64(j)) * math.Pow(1-q, float64(5-j))
	}
	if got := pBig.adoptBlueProb(1, false); math.Abs(got-wantBig) > 1e-12 {
		t.Errorf("degree fallback adopt = %v, want %v", got, wantBig)
	}
}

func choose(n, k int) int {
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
	}
	return c
}

func TestMeanFieldDeterminism(t *testing.T) {
	n := 512
	kn := graph.NewKn(n)
	cfg := opinion.RandomConfig(n, 0.42, rng.New(5))
	run := func() []int {
		p, err := New(kn, BestOfThree, cfg, Options{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return runTo(t, p, 50).BlueTrajectory
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mean-field trajectories diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestMeanFieldConfigMaterialisation(t *testing.T) {
	n := 200
	kn := graph.NewKn(n)
	p, err := New(kn, BestOfThree, opinion.RandomConfig(n, 0.45, rng.New(6)), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p.Step()
		cfg := p.Config()
		if cfg.Blues() != p.Blues() {
			t.Fatalf("round %d: materialised blues %d != count %d", i, cfg.Blues(), p.Blues())
		}
		// Canonical prefix form: every blue vertex precedes every red one.
		for v := 1; v < n; v++ {
			if cfg.Get(v) == opinion.Blue && cfg.Get(v-1) == opinion.Red {
				t.Fatalf("round %d: materialised config not in prefix form at %d", i, v)
			}
		}
	}
	p.SetBlueCount(13)
	if p.Blues() != 13 || p.Config().Blues() != 13 {
		t.Errorf("SetBlueCount: Blues = %d, Config().Blues = %d", p.Blues(), p.Config().Blues())
	}
}

// TestMeanFieldOneRoundMoments compares the mean of one mean-field round
// against the analytic expectation n_red·pRed + n_blue·pBlue over many
// draws — a direct check that the two binomial draws target the right
// probabilities.
func TestMeanFieldOneRoundMoments(t *testing.T) {
	n, b := 1000, 350
	kn := graph.NewKn(n)
	p, err := New(kn, BestOfThree, opinion.NewConfig(n), Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	mean := float64(n-b)*p.adoptBlueProb(b, false) + float64(b)*p.adoptBlueProb(b, true)
	const reps = 4000
	sum := 0.0
	for i := 0; i < reps; i++ {
		p.SetBlueCount(b)
		p.Step()
		sum += float64(p.Blues())
	}
	got := sum / reps
	// Std of one draw is < sqrt(n)/2 ≈ 16; the mean of 4000 reps has SE
	// ≈ 0.25, so a ±1.5 window is ~6σ.
	if math.Abs(got-mean) > 1.5 {
		t.Errorf("one-round mean = %v, want %v", got, mean)
	}
}
