package dynamics

import (
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/opinion"
	"repro/internal/rng"
)

func TestRuleValidate(t *testing.T) {
	if err := (Rule{K: 0}).Validate(); err == nil {
		t.Error("K=0 should be invalid")
	}
	if err := (Rule{K: -2}).Validate(); err == nil {
		t.Error("negative K should be invalid")
	}
	for _, r := range []Rule{Voter, BestOfTwo, BestOfThree, {K: 5}} {
		if err := r.Validate(); err != nil {
			t.Errorf("%s invalid: %v", r.Name(), err)
		}
	}
}

func TestRuleNames(t *testing.T) {
	if got := BestOfThree.Name(); got != "best-of-3" {
		t.Errorf("Name = %q", got)
	}
	if got := BestOfTwo.Name(); got != "best-of-2/keep" {
		t.Errorf("Name = %q", got)
	}
	if got := (Rule{K: 2, Tie: TieRandom}).Name(); got != "best-of-2/random" {
		t.Errorf("Name = %q", got)
	}
	if got := (Rule{K: 3, WithoutReplacement: true}).Name(); got != "best-of-3/noreplace" {
		t.Errorf("Name = %q", got)
	}
	if got := (TieRule(9)).String(); got != "TieRule(9)" {
		t.Errorf("unknown tie rule String = %q", got)
	}
}

func TestNewRejectsMismatch(t *testing.T) {
	g := graph.Complete(5)
	cfg := opinion.NewConfig(4)
	if _, err := New(g, BestOfThree, cfg, Options{}); err == nil {
		t.Error("size mismatch not rejected")
	}
	if _, err := New(g, Rule{K: 0}, opinion.NewConfig(5), Options{}); err == nil {
		t.Error("invalid rule not rejected")
	}
}

func TestNewRejectsIsolatedVertex(t *testing.T) {
	g := graph.FromEdges(3, [][2]int{{0, 1}}, "isolated")
	if _, err := New(g, BestOfThree, opinion.NewConfig(3), Options{}); err == nil {
		t.Error("isolated vertex not rejected")
	}
}

func TestConsensusAbsorbing(t *testing.T) {
	// From a monochromatic configuration the dynamic never moves.
	g := graph.Complete(20)
	for _, col := range []opinion.Colour{opinion.Red, opinion.Blue} {
		cfg := opinion.NewConfig(20)
		if col == opinion.Blue {
			cfg.FillBlue()
		}
		p, err := New(g, BestOfThree, cfg, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			p.Step()
		}
		got, ok := p.Config().IsConsensus()
		if !ok || got != col {
			t.Errorf("consensus %v not absorbing", col)
		}
	}
}

func TestRunStopsAtConsensus(t *testing.T) {
	g := graph.Complete(64)
	src := rng.New(7)
	cfg := opinion.RandomConfig(64, 0.25, src)
	p, err := New(g, BestOfThree, cfg, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	res := runTo(t, p, 1000)
	if !res.Consensus {
		t.Fatalf("no consensus on K64 after %d rounds", res.Rounds)
	}
	if res.Winner != opinion.Red {
		t.Errorf("winner = %v, want red from 25%% blue start", res.Winner)
	}
	if res.Rounds >= 1000 {
		t.Errorf("rounds = %d, expected quick consensus", res.Rounds)
	}
	if len(res.BlueTrajectory) != res.Rounds+1 {
		t.Errorf("trajectory length %d, rounds %d", len(res.BlueTrajectory), res.Rounds)
	}
	if res.BlueTrajectory[res.Rounds] != 0 {
		t.Errorf("final blue count = %d", res.BlueTrajectory[res.Rounds])
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	g := graph.RandomRegular(256, 8, rng.New(10))
	cfg := opinion.RandomConfig(256, 0.4, rng.New(11))
	run := func() []int {
		p, err := New(g, BestOfThree, cfg, Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return runTo(t, p, 50).BlueTrajectory
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trajectory lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trajectories diverge at round %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestTrajectoryIndependentOfGOMAXPROCS pins the one-stream contract: a
// Process draws every sample from one source derived from its seed, so the
// same seed gives the same configuration after every round whatever the
// core count. Every round is compared, not only the last: a rule that has
// already reached consensus would hide an earlier split.
func TestTrajectoryIndependentOfGOMAXPROCS(t *testing.T) {
	const n, rounds = 640, 20
	g := graph.RandomRegular(n, 12, rng.New(1))
	init := opinion.RandomConfig(n, 0.45, rng.New(2))
	trajectory := func(rule Rule, procs int) []*opinion.Config {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		p, err := New(g, rule, init, Options{Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		var out []*opinion.Config
		for r := 0; r < rounds; r++ {
			p.Step()
			out = append(out, p.Config().Clone())
		}
		return out
	}
	for _, rule := range []Rule{BestOfThree, {K: 3, Noise: 0.05}, {K: 2, Tie: TieRandom}} {
		one, four := trajectory(rule, 1), trajectory(rule, 4)
		for r := range one {
			if !one[r].Equal(four[r]) {
				t.Errorf("%s: GOMAXPROCS 1 and 4 diverge at round %d (blues %d vs %d)",
					rule.Name(), r+1, one[r].Blues(), four[r].Blues())
				break
			}
		}
	}
}

func TestVoterModelOnTwoCliqueVertices(t *testing.T) {
	// Voter model on K2: each vertex copies the other; from (R,B) the
	// configuration either swaps or collapses, but counts stay in {0,1,2}.
	g := graph.Complete(2)
	cfg := opinion.FromColours([]opinion.Colour{opinion.Red, opinion.Blue})
	p, err := New(g, Voter, cfg, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p.Step()
		b := p.Config().Blues()
		if b < 0 || b > 2 {
			t.Fatalf("blue count %d out of range", b)
		}
	}
}

func TestBestOfTwoTieKeepIsLazy(t *testing.T) {
	// On K2 with distinct opinions, best-of-2 with TieKeep: each vertex
	// samples the other vertex twice with replacement — both samples always
	// agree (the other's colour), so vertices always swap. Blue count is
	// conserved at 1.
	g := graph.Complete(2)
	cfg := opinion.FromColours([]opinion.Colour{opinion.Red, opinion.Blue})
	p, err := New(g, BestOfTwo, cfg, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		p.Step()
		if b := p.Config().Blues(); b != 1 {
			t.Fatalf("K2 best-of-2 blue count = %d at round %d, want 1", b, i+1)
		}
	}
}

func TestTieRandomEventuallyBreaksSymmetry(t *testing.T) {
	// On K2 no tie can occur (both samples hit the single neighbour), so use
	// K3 with one blue vertex: each vertex has two neighbours and a split
	// sample triggers the random tie rule, which must eventually collapse
	// the chain into consensus.
	g := graph.Complete(3)
	cfg := opinion.FromColours([]opinion.Colour{opinion.Red, opinion.Blue, opinion.Red})
	p, err := New(g, Rule{K: 2, Tie: TieRandom}, cfg, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := runTo(t, p, 10000)
	if !res.Consensus {
		t.Error("random tie-breaking never reached consensus on K3")
	}
}

func TestMajorityAmplification(t *testing.T) {
	// On a large complete graph with 30% blue, one best-of-3 round should
	// push the blue fraction down towards 3b²−2b³ = 0.216. The virtual
	// complete topology avoids materialising the Θ(n²) edge list.
	n := 20000
	g := graph.NewKn(n)
	cfg := opinion.RandomConfig(n, 0.3, rng.New(20))
	p, err := New(g, BestOfThree, cfg, Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	p.Step()
	got := p.Config().BlueFraction()
	want := 3*0.3*0.3 - 2*0.3*0.3*0.3
	if got < want-0.02 || got > want+0.02 {
		t.Errorf("after one round blue fraction = %v, want ~%v", got, want)
	}
}

func TestRedWinsWHPFromMajority(t *testing.T) {
	// The paper's headline behaviour at laptop scale: δ = 0.1 on a dense
	// regular graph; red must win in every one of a handful of trials, and
	// quickly.
	g := graph.RandomRegular(2048, 128, rng.New(30))
	for trial := uint64(0); trial < 5; trial++ {
		cfg := opinion.RandomConfig(2048, 0.4, rng.New(100+trial))
		p, err := New(g, BestOfThree, cfg, Options{Seed: 200 + trial})
		if err != nil {
			t.Fatal(err)
		}
		res := runTo(t, p, 200)
		if !res.Consensus || res.Winner != opinion.Red {
			t.Errorf("trial %d: consensus=%v winner=%v rounds=%d", trial, res.Consensus, res.Winner, res.Rounds)
		}
		if res.Rounds > 30 {
			t.Errorf("trial %d: %d rounds, expected O(log log n) ≈ single digits", trial, res.Rounds)
		}
	}
}

func TestWithoutReplacementRuleRuns(t *testing.T) {
	g := graph.RandomRegular(512, 16, rng.New(40))
	cfg := opinion.RandomConfig(512, 0.35, rng.New(41))
	p, err := New(g, Rule{K: 3, WithoutReplacement: true}, cfg, Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	res := runTo(t, p, 300)
	if !res.Consensus || res.Winner != opinion.Red {
		t.Errorf("no-replacement variant: %+v", res)
	}
}

func TestWithoutReplacementLowDegreeFallback(t *testing.T) {
	// Degree 2 < K = 3 forces the with-replacement fallback; must not hang.
	g := graph.Cycle(50)
	cfg := opinion.RandomConfig(50, 0.2, rng.New(43))
	p, err := New(g, Rule{K: 3, WithoutReplacement: true}, cfg, Options{Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	p.Step()
}

func TestEmptyGraphProcess(t *testing.T) {
	g := graph.NewBuilder(0).Build()
	p, err := New(g, BestOfThree, opinion.NewConfig(0), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := runTo(t, p, 3)
	if !res.Consensus || res.Winner != opinion.Red {
		t.Errorf("empty graph result = %+v", res)
	}
}

func TestMaxRoundsRespected(t *testing.T) {
	// Near-critical start on a sparse graph: run must stop at the cap.
	g := graph.Cycle(100)
	cfg := opinion.RandomConfig(100, 0.5, rng.New(50))
	p, err := New(g, Voter, cfg, Options{Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	res := runTo(t, p, 7)
	if res.Rounds > 7 {
		t.Errorf("rounds = %d exceeds cap", res.Rounds)
	}
}

func TestAsyncBasics(t *testing.T) {
	g := graph.Complete(64)
	cfg := opinion.RandomConfig(64, 0.25, rng.New(60))
	a, err := NewAsync(g, BestOfThree, cfg, 61)
	if err != nil {
		t.Fatal(err)
	}
	res := runTo(t, a, 500)
	if !res.Consensus {
		t.Fatalf("async no consensus: %+v", res)
	}
	if res.Winner != opinion.Red {
		t.Errorf("async winner = %v", res.Winner)
	}
	if a.Round() > 500 {
		t.Errorf("sweeps = %d over budget", a.Round())
	}
}

func TestAsyncRejectsBadInput(t *testing.T) {
	g := graph.Complete(4)
	if _, err := NewAsync(g, Rule{K: 0}, opinion.NewConfig(4), 1); err == nil {
		t.Error("bad rule accepted")
	}
	if _, err := NewAsync(g, Voter, opinion.NewConfig(3), 1); err == nil {
		t.Error("size mismatch accepted")
	}
	if _, err := NewAsync(graph.NewBuilder(0).Build(), Voter, opinion.NewConfig(0), 1); err == nil {
		t.Error("empty graph accepted for async")
	}
	iso := graph.FromEdges(3, [][2]int{{0, 1}}, "isolated")
	if _, err := NewAsync(iso, Voter, opinion.NewConfig(3), 1); err == nil {
		t.Error("isolated vertex accepted for async")
	}
}

func TestAsyncBlueCounterConsistent(t *testing.T) {
	g := graph.RandomRegular(100, 6, rng.New(70))
	cfg := opinion.RandomConfig(100, 0.5, rng.New(71))
	a, err := NewAsync(g, BestOfTwo, cfg, 72)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40 && !a.Consensus(); i++ {
		a.Step()
		if a.blues != a.cfg.Blues() {
			t.Fatalf("cached blue count %d != actual %d after sweep %d", a.blues, a.cfg.Blues(), i+1)
		}
	}
}

// Property: one synchronous step never produces an out-of-range blue count
// and is monotone in the coupling sense for monochromatic inputs.
func TestQuickStepSanity(t *testing.T) {
	g := graph.RandomRegular(64, 8, rng.New(80))
	f := func(seed uint64, pRaw uint8) bool {
		cfg := opinion.RandomConfig(64, float64(pRaw)/255, rng.New(seed))
		p, err := New(g, BestOfThree, cfg, Options{Seed: seed})
		if err != nil {
			return false
		}
		p.Step()
		b := p.Config().Blues()
		return b >= 0 && b <= 64
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the dynamic commutes with the colour swap symmetry. Flipping
// every opinion and swapping the tie rule target yields the flipped
// trajectory under the same randomness for odd k (no ties).
func TestQuickColourSymmetry(t *testing.T) {
	g := graph.RandomRegular(32, 4, rng.New(90))
	f := func(seed uint64) bool {
		cfg := opinion.RandomConfig(32, 0.5, rng.New(seed))
		flipped := cfg.Clone()
		flipped.BlueSet().FlipAll()

		p1, _ := New(g, BestOfThree, cfg, Options{Seed: seed})
		p2, _ := New(g, BestOfThree, flipped, Options{Seed: seed})
		p1.Step()
		p2.Step()
		// After one step with identical sampling randomness, p2 must be the
		// exact flip of p1.
		a := p1.Config().Clone()
		a.BlueSet().FlipAll()
		return a.Equal(p2.Config())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// benchSteps times b.N rounds of p on an n-vertex topology, resetting
// the blue count to n/2 before each one so every timed round samples a
// mixed state, as bo3bench's round/* scenarios do.
func benchSteps(b *testing.B, p *Process, n int) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SetBlueCount(n / 2)
		p.Step()
	}
}

func BenchmarkStepComplete4096(b *testing.B) {
	g := graph.Complete(4096)
	cfg := opinion.RandomConfig(4096, 0.4, rng.New(1))
	p, err := New(g, BestOfThree, cfg, Options{Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	benchSteps(b, p, 4096)
}

func BenchmarkStepRegular65536(b *testing.B) {
	g := graph.RandomRegular(65536, 64, rng.New(1))
	cfg := opinion.RandomConfig(65536, 0.4, rng.New(2))
	p, err := New(g, BestOfThree, cfg, Options{Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	benchSteps(b, p, 65536)
}

// The noisy benchmarks take the shape of the sweep-variants perfbench
// workload's noise cells: random-regular n = 2¹⁵, d = 32, Best-of-Three
// with per-sample noise 0.05.
const noisyBenchN = 1 << 15

var noisyBenchRule = Rule{K: 3, Noise: 0.05}

func BenchmarkStepNoisyRegular32768(b *testing.B) {
	g := graph.RandomRegular(noisyBenchN, 32, rng.New(1))
	cfg := opinion.RandomConfig(noisyBenchN, 0.4, rng.New(2))
	p, err := New(g, noisyBenchRule, cfg, Options{Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	benchSteps(b, p, noisyBenchN)
}

// BenchmarkAsyncNoisySweep times one sweep (n ticks) of the noisy async
// dynamic. Noise holds the configuration off consensus, near the noisy
// fixed point where the workload's round-capped cells spend their time,
// so no reset is needed.
func BenchmarkAsyncNoisySweep(b *testing.B) {
	g := graph.RandomRegular(noisyBenchN, 32, rng.New(1))
	cfg := opinion.RandomConfig(noisyBenchN, 0.4, rng.New(2))
	a, err := NewAsync(g, noisyBenchRule, cfg, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Step()
	}
}

// BenchmarkAsyncSweep times one noise-free sweep, restoring the initial
// configuration before each one (an O(n/64) copy) so that no timed sweep
// starts at consensus, where Step returns at once.
func BenchmarkAsyncSweep(b *testing.B) {
	g := graph.RandomRegular(8192, 32, rng.New(1))
	cfg := opinion.RandomConfig(8192, 0.4, rng.New(2))
	a, err := NewAsync(g, BestOfThree, cfg, 3)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(a.cfg.BlueSet().Words(), cfg.BlueSet().Words())
		a.blues = cfg.Blues()
		a.Step()
	}
}
