package dynamics

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/opinion"
	"repro/internal/rng"
)

func TestStubbornVerticesNeverFlip(t *testing.T) {
	g := graph.Complete(64)
	init := opinion.NewConfig(64) // all red
	init.Set(0, opinion.Blue)
	init.Set(1, opinion.Blue)
	s, err := New(g, BestOfThree, init, Options{Seed: 1, Stubborn: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		s.Step()
		if s.Config().Get(0) != opinion.Blue || s.Config().Get(1) != opinion.Blue {
			t.Fatalf("stubborn vertex flipped at round %d", i+1)
		}
	}
}

func TestStubbornRedVerticesHoldRed(t *testing.T) {
	// All-blue sea with two stubborn red vertices: the reds persist.
	g := graph.Complete(32)
	init := opinion.NewConfig(32)
	init.FillBlue()
	init.Set(5, opinion.Red)
	s, err := New(g, BestOfThree, init, Options{Seed: 2, Stubborn: []int{5}})
	if err != nil {
		t.Fatal(err)
	}
	res := runTo(t, s, 50)
	if res.Consensus {
		t.Error("consensus impossible with an opposing stubborn vertex")
	}
	if s.Config().Get(5) != opinion.Red {
		t.Error("stubborn red vertex lost its opinion")
	}
}

func TestStubbornRejectsOutOfRange(t *testing.T) {
	g := graph.Complete(8)
	init := opinion.NewConfig(8)
	if _, err := New(g, BestOfThree, init, Options{Stubborn: []int{8}}); err == nil {
		t.Error("out-of-range stubborn vertex accepted")
	}
	if _, err := New(g, BestOfThree, init, Options{Stubborn: []int{-1}}); err == nil {
		t.Error("negative stubborn vertex accepted")
	}
}

// TestStubbornEngineSelection: zealots break mean-field exchangeability, so
// EngineAuto resolves to the general engine on K_n and a forced
// EngineMeanField is refused.
func TestStubbornEngineSelection(t *testing.T) {
	kn := graph.NewKn(64)
	init := opinion.NewConfig(64)
	p, err := New(kn, BestOfThree, init, Options{Stubborn: []int{3}})
	if err != nil {
		t.Fatal(err)
	}
	if p.Engine() != EngineGeneral {
		t.Errorf("auto with zealots resolved %v, want general", p.Engine())
	}
	if _, err := New(kn, BestOfThree, init, Options{Engine: EngineMeanField, Stubborn: []int{3}}); err == nil {
		t.Error("mean-field engine accepted with zealots")
	}
}

func TestStubbornEmptySetBehavesLikePlain(t *testing.T) {
	g := graph.RandomRegular(128, 8, rng.New(3))
	init := opinion.RandomConfig(128, 0.3, rng.New(4))
	s, err := New(g, BestOfThree, init, Options{Seed: 5, Stubborn: []int{}})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(g, BestOfThree, init, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.Step()
		p.Step()
		if !s.Config().Equal(p.Config()) {
			t.Fatalf("empty stubborn set diverged from plain process at round %d", i+1)
		}
	}
}

func TestStubbornRunStopsOnConsensusWhenPossible(t *testing.T) {
	// Stubborn vertices that agree with the majority do not block
	// consensus.
	g := graph.Complete(64)
	init := opinion.RandomConfig(64, 0.2, rng.New(6))
	init.Set(0, opinion.Red)
	s, err := New(g, BestOfThree, init, Options{Seed: 7, Stubborn: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	res := runTo(t, s, 500)
	if !res.Consensus || res.Winner != opinion.Red {
		t.Errorf("result = %+v", res)
	}
}

func TestFewStubbornBlueCannotOverturnDenseMajority(t *testing.T) {
	// A handful of stubborn blue zealots on a dense graph: red still
	// dominates the final configuration (though consensus is impossible).
	g := graph.RandomRegular(512, 64, rng.New(8))
	init := opinion.RandomConfig(512, 0.35, rng.New(9))
	stub := []int{0, 1, 2, 3}
	for _, v := range stub {
		init.Set(v, opinion.Blue)
	}
	s, err := New(g, BestOfThree, init, Options{Seed: 10, Stubborn: stub})
	if err != nil {
		t.Fatal(err)
	}
	res := runTo(t, s, 100)
	finalBlue := res.BlueTrajectory[len(res.BlueTrajectory)-1]
	if finalBlue > 30 {
		t.Errorf("final blue count %d: zealots overturned the majority", finalBlue)
	}
}
