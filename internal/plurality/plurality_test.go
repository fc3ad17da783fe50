package plurality

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/opinion"
	"repro/internal/rng"
)

// runTo drives p through the shared run loop with no deadline.
func runTo(t *testing.T, p *Process, maxRounds int) dynamics.Result {
	t.Helper()
	res, err := dynamics.Run(context.Background(), p, maxRounds, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestNewConfigPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"q too small": func() { NewConfig(4, 1) },
		"q too big":   func() { NewConfig(4, 257) },
		"negative n":  func() { NewConfig(-1, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestConfigBasics(t *testing.T) {
	c := NewConfig(5, 4)
	if c.N() != 5 || c.Q() != 4 {
		t.Fatalf("N=%d Q=%d", c.N(), c.Q())
	}
	c.Set(2, 3)
	if c.Get(2) != 3 {
		t.Error("Get after Set")
	}
	counts := c.Counts()
	if counts[0] != 4 || counts[3] != 1 {
		t.Errorf("Counts = %v", counts)
	}
	op, cnt := c.Plurality()
	if op != 0 || cnt != 4 {
		t.Errorf("Plurality = (%d, %d)", op, cnt)
	}
}

func TestConfigSetPanicsOutOfRange(t *testing.T) {
	c := NewConfig(3, 3)
	for _, op := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Set(%d) did not panic", op)
				}
			}()
			c.Set(0, op)
		}()
	}
}

func TestIsConsensus(t *testing.T) {
	c := NewConfig(4, 3)
	if op, ok := c.IsConsensus(); !ok || op != 0 {
		t.Error("uniform config not consensus")
	}
	c.Set(1, 2)
	if _, ok := c.IsConsensus(); ok {
		t.Error("mixed config reported consensus")
	}
	if op, ok := NewConfig(0, 2).IsConsensus(); !ok || op != 0 {
		t.Error("empty config should be consensus on 0")
	}
}

func TestCloneIndependent(t *testing.T) {
	c := NewConfig(4, 3)
	c.Set(0, 1)
	d := c.Clone()
	d.Set(0, 2)
	if c.Get(0) != 1 {
		t.Error("clone mutation leaked")
	}
}

func TestRandomBiasedConfigShares(t *testing.T) {
	src := rng.New(1)
	const n, q = 100000, 5
	c := RandomBiasedConfig(n, q, 0.4, src)
	counts := c.Counts()
	if got := float64(counts[0]) / n; got < 0.38 || got > 0.42 {
		t.Errorf("opinion 0 share = %v, want ~0.4", got)
	}
	for op := 1; op < q; op++ {
		if got := float64(counts[op]) / n; got < 0.13 || got > 0.17 {
			t.Errorf("opinion %d share = %v, want ~0.15", op, got)
		}
	}
}

func TestRandomBiasedConfigPanics(t *testing.T) {
	for _, s := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("share %v did not panic", s)
				}
			}()
			RandomBiasedConfig(10, 3, s, rng.New(1))
		}()
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	g := graph.Complete(4)
	if _, err := New(g, NewConfig(5, 3), Options{}); err == nil {
		t.Error("size mismatch accepted")
	}
	iso := graph.FromEdges(3, [][2]int{{0, 1}}, "isolated")
	if _, err := New(iso, NewConfig(3, 3), Options{}); err == nil {
		t.Error("isolated vertex accepted")
	}
}

// TestTwoPartyView: opinion 0 plays Red for the run loop. Blues counts
// every other opinion, Majority asks whether opinion 0 leads, and
// Consensus means one opinion everywhere, whichever it is.
func TestTwoPartyView(t *testing.T) {
	g := graph.Complete(10)
	c := NewConfig(10, 4)
	for v, op := range []int{0, 0, 0, 0, 1, 1, 2, 2, 3, 3} {
		c.Set(v, op)
	}
	p, err := New(g, c, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Blues() != 6 || p.Majority() != opinion.Red || p.Consensus() {
		t.Fatalf("mixed: Blues %d Majority %v Consensus %v", p.Blues(), p.Majority(), p.Consensus())
	}
	for v := 0; v < 10; v++ {
		c.Set(v, 3)
	}
	if p, err = New(g, c, Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if p.Blues() != 10 || p.Majority() != opinion.Blue || !p.Consensus() {
		t.Fatalf("consensus on 3: Blues %d Majority %v Consensus %v", p.Blues(), p.Majority(), p.Consensus())
	}
}

func TestConsensusAbsorbing(t *testing.T) {
	g := graph.Complete(16)
	c := NewConfig(16, 4)
	for v := 0; v < 16; v++ {
		c.Set(v, 2)
	}
	p, err := New(g, c, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p.Step()
	}
	if op, ok := p.Config().IsConsensus(); !ok || op != 2 {
		t.Error("consensus not absorbing")
	}
}

func TestPluralityWinsOnComplete(t *testing.T) {
	// Opinion 0 with a solid initial advantage must win on K_n.
	g := graph.NewKn(4096)
	wins := 0
	const trials = 10
	for trial := uint64(0); trial < trials; trial++ {
		src := rng.New(trial)
		init := RandomBiasedConfig(4096, 4, 0.45, src)
		p, err := New(g, init, Options{Seed: trial, Tie: TieRandomSample})
		if err != nil {
			t.Fatal(err)
		}
		res := runTo(t, p, 2000)
		if !res.Consensus {
			t.Fatalf("trial %d: no consensus", trial)
		}
		if res.Winner == opinion.Red {
			wins++
		}
	}
	if wins < trials-1 {
		t.Errorf("plurality opinion won only %d/%d", wins, trials)
	}
}

func TestQEquals2MatchesTwoPartyShape(t *testing.T) {
	// q = 2 with a 60/40 split on a dense regular graph: consensus on the
	// majority within double-log-ish rounds, mirroring the two-party
	// engine.
	g := graph.RandomRegular(1024, 64, rng.New(3))
	init := RandomBiasedConfig(1024, 2, 0.6, rng.New(4))
	p, err := New(g, init, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res := runTo(t, p, 300)
	if !res.Consensus || res.Winner != opinion.Red {
		t.Errorf("result = %+v", res)
	}
	if res.Rounds > 30 {
		t.Errorf("rounds = %d", res.Rounds)
	}
}

func TestTieKeepVsRandomBothConverge(t *testing.T) {
	g := graph.Complete(128)
	for _, tie := range []TieRule{TieKeep, TieRandomSample} {
		init := RandomBiasedConfig(128, 3, 0.5, rng.New(6))
		p, err := New(g, init, Options{Seed: 7, Tie: tie})
		if err != nil {
			t.Fatal(err)
		}
		if res := runTo(t, p, 5000); !res.Consensus {
			t.Errorf("tie rule %d did not converge", tie)
		}
	}
}

func TestDeterminism(t *testing.T) {
	g := graph.RandomRegular(256, 8, rng.New(8))
	init := RandomBiasedConfig(256, 5, 0.3, rng.New(9))
	run := func() []int {
		p, err := New(g, init, Options{Seed: 10})
		if err != nil {
			t.Fatal(err)
		}
		runTo(t, p, 20)
		return p.Config().Counts()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged: %v vs %v", a, b)
		}
	}
}

// TestTrajectoryIndependentOfGOMAXPROCS: every draw comes from one source
// derived from the seed, so the configuration after every round is the
// same under GOMAXPROCS 1 and 4, for both tie rules.
func TestTrajectoryIndependentOfGOMAXPROCS(t *testing.T) {
	const n, rounds = 640, 20
	g := graph.RandomRegular(n, 12, rng.New(1))
	init := RandomBiasedConfig(n, 3, 0.4, rng.New(2))
	trajectory := func(tie TieRule, procs int) []*Config {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		p, err := New(g, init, Options{Seed: 9, Tie: tie})
		if err != nil {
			t.Fatal(err)
		}
		var out []*Config
		for r := 0; r < rounds; r++ {
			p.Step()
			out = append(out, p.Config().Clone())
		}
		return out
	}
	for _, tie := range []TieRule{TieKeep, TieRandomSample} {
		one, four := trajectory(tie, 1), trajectory(tie, 4)
		for r := range one {
			if !slices.Equal(one[r].opinions, four[r].opinions) {
				t.Errorf("tie rule %d: GOMAXPROCS 1 and 4 diverge at round %d (counts %v vs %v)",
					tie, r+1, one[r].Counts(), four[r].Counts())
				break
			}
		}
	}
}

// Property: counts always sum to n and stay non-negative after any number
// of steps.
func TestQuickCountsConserved(t *testing.T) {
	g := graph.Complete(32)
	f := func(seed uint64, qRaw uint8) bool {
		q := int(qRaw)%6 + 2
		init := RandomBiasedConfig(32, q, 1/float64(q), rng.New(seed))
		p, err := New(g, init, Options{Seed: seed})
		if err != nil {
			return false
		}
		for i := 0; i < 5; i++ {
			p.Step()
		}
		total := 0
		for _, c := range p.Config().Counts() {
			if c < 0 {
				return false
			}
			total += c
		}
		return total == 32
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: opinions never leave the alphabet (adopted opinions are always
// sampled from neighbours).
func TestQuickOpinionsClosedUnderDynamics(t *testing.T) {
	g := graph.Cycle(24)
	f := func(seed uint64) bool {
		init := RandomBiasedConfig(24, 4, 0.25, rng.New(seed))
		present := map[int]bool{}
		for v := 0; v < 24; v++ {
			present[init.Get(v)] = true
		}
		p, err := New(g, init, Options{Seed: seed, Tie: TieRandomSample})
		if err != nil {
			return false
		}
		for i := 0; i < 10; i++ {
			p.Step()
		}
		for v := 0; v < 24; v++ {
			if !present[p.Config().Get(v)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkStepQ5(b *testing.B) {
	g := graph.RandomRegular(1<<14, 32, rng.New(1))
	init := RandomBiasedConfig(1<<14, 5, 0.3, rng.New(2))
	p, err := New(g, init, Options{Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Step()
	}
}

// Get returns the opinion of vertex v.
func (c *Config) Get(v int) int { return int(c.opinions[v]) }

// Set assigns opinion op to vertex v.
func (c *Config) Set(v, op int) {
	if op < 0 || op >= c.q {
		panic(fmt.Sprintf("plurality: opinion %d out of range [0,%d)", op, c.q))
	}
	c.opinions[v] = uint8(op)
}

// Config returns the current configuration (aliased; clone to keep).
func (p *Process) Config() *Config { return p.cur }
