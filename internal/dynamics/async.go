package dynamics

import (
	"fmt"

	"repro/internal/opinion"
	"repro/internal/rng"
)

// AsyncProcess is the asynchronous (sequential-activation) variant of
// Best-of-k: at each tick a single uniformly random vertex wakes up,
// samples k neighbours and updates. n ticks form one "sweep", the natural
// unit comparable to one synchronous round; Step runs one sweep, so Run
// drives this process exactly like the synchronous one.
//
// The paper analyses the synchronous dynamic; the asynchronous variant is
// provided as an extension so that the examples can contrast the two
// activation models on the same workloads.
type AsyncProcess struct {
	g      Topology
	rule   Rule
	cfg    *opinion.Config
	src    *rng.Source
	flips  *rng.BinomialTable // nil without noise
	sweeps int
	blues  int
}

// NewAsync returns an asynchronous process. The initial configuration is
// copied.
func NewAsync(g Topology, rule Rule, init *opinion.Config, seed uint64) (*AsyncProcess, error) {
	if err := rule.Validate(); err != nil {
		return nil, err
	}
	if rule.WithoutReplacement {
		return nil, fmt.Errorf("dynamics: the async process does not implement without-replacement sampling")
	}
	if g.N() != init.N() {
		return nil, fmt.Errorf("dynamics: graph has %d vertices, configuration has %d", g.N(), init.N())
	}
	if g.N() == 0 {
		return nil, fmt.Errorf("dynamics: async process requires a non-empty graph")
	}
	if g.MinDegree() == 0 {
		return nil, fmt.Errorf("dynamics: graph %s has an isolated vertex", g.Name())
	}
	cfg := init.Clone()
	a := &AsyncProcess{g: g, rule: rule, cfg: cfg, src: rng.New(seed), blues: cfg.Blues()}
	if rule.Noise > 0 {
		a.flips = rng.NewBinomialTable(rule.Noise, rule.K)
	}
	return a, nil
}

// Round returns the number of completed sweeps.
func (a *AsyncProcess) Round() int { return a.sweeps }

// Blues returns the current number of Blue vertices (tracked incrementally,
// so the read is O(1)).
func (a *AsyncProcess) Blues() int { return a.blues }

// Consensus reports whether every vertex holds one opinion.
func (a *AsyncProcess) Consensus() bool { return a.blues == 0 || a.blues == a.g.N() }

// Majority returns the majority colour (ties go to Red).
func (a *AsyncProcess) Majority() opinion.Colour { return majority(a.blues, a.g.N()) }

// Tick activates one uniformly random vertex and applies the same update
// as one vertex of a synchronous noisy round.
func (a *AsyncProcess) Tick() {
	v := a.src.Intn(a.g.N())
	words := a.cfg.BlueSet().Words()
	if bit := updateScalar(a.g, &a.rule, a.flips, words, v, a.src); bit != (words[v>>6]>>(uint(v)&63))&1 {
		if bit == 1 {
			a.blues++
			a.cfg.Set(v, opinion.Blue)
		} else {
			a.blues--
			a.cfg.Set(v, opinion.Red)
		}
	}
}

// Step runs one sweep: n ticks, cut short the moment consensus is reached,
// since a run stops there.
func (a *AsyncProcess) Step() {
	n := a.g.N()
	for i := 0; i < n && a.blues != 0 && a.blues != n; i++ {
		a.Tick()
	}
	a.sweeps++
}
