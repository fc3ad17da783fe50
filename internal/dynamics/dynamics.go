// Package dynamics implements the synchronous Best-of-k opinion dynamics
// studied by the paper, together with the baseline protocols it compares
// against.
//
// In one round of Best-of-k, every vertex simultaneously samples k
// neighbours uniformly at random with replacement and adopts the majority
// opinion among the samples; ties (possible only for even k) are resolved
// by a configurable rule. Best-of-1 is the classical voter model and
// Best-of-3 is the paper's protocol.
//
// Two engines implement a round, selected by an automatic dispatch seam
// (see Engine):
//
//   - The general engine double-buffers the configuration and sweeps the
//     vertices in order on the calling goroutine through one vertex kernel,
//     which the async sweep runs too. The kernel reads the topology's rows
//     resolved once per process (Rows) and draws every sample from the
//     process's one RNG stream through one block-refilled buffer
//     (rng.Words), consuming the generator's words in exactly the order a
//     scalar sampler would, so buffering changes no trajectory. Opinions
//     are read and written word-at-a-time against the packed bitsets, and
//     a run is a deterministic function of its seed. Parallelism lives
//     one level up: callers run independent processes (trials)
//     concurrently.
//   - The mean-field engine advances topologies that declare mean-field
//     exchangeability (the virtual complete graph graph.Kn) in O(1) per
//     round: the blue count is a Markov chain, so one round is two binomial
//     draws with analytically exact adoption probabilities honouring K, tie
//     rules, sampling without replacement, and per-sample noise. Its
//     trajectories are distributionally identical to the general engine's
//     (and exactly the internal/markov chain) but follow a different RNG
//     stream.
//
// Run is the one run loop: it drives any Dynamic — the synchronous
// Process (zealots included, via Options.Stubborn), the AsyncProcess, and
// the q-opinion plurality.Process — to consensus or a round budget.
package dynamics

import (
	"fmt"

	"repro/internal/opinion"
	"repro/internal/rng"
)

// Topology is the minimal neighbour-query interface the engine needs. Both
// *graph.Graph (CSR) and graph.Kn (virtual complete graph, so that
// complete-graph experiments avoid the Θ(n²) edge list) satisfy it. The
// engine reads those two types' rows directly (ResolveRows) and makes
// these calls only for other implementations.
type Topology interface {
	// N returns the number of vertices.
	N() int
	// Degree returns the degree of vertex v.
	Degree(v int) int
	// Neighbor returns the i-th neighbour of v, 0 <= i < Degree(v).
	Neighbor(v, i int) int
	// MinDegree returns the minimum degree over all vertices.
	MinDegree() int
	// Name identifies the topology in logs and tables.
	Name() string
}

// MeanFielder is an optional Topology extension: a topology reporting
// MeanFieldEligible() == true asserts that every vertex's k samples are
// uniform over all other vertices, so a synchronous Best-of-k round
// depends on the configuration only through the global blue count.
// graph.Kn implements it; the engine dispatch (Engine, ResolveEngine) uses
// it to select the O(1)-per-round mean-field fast path.
type MeanFielder interface {
	Topology
	MeanFieldEligible() bool
}

// Engine selects the per-round update implementation.
type Engine uint8

const (
	// EngineAuto picks the mean-field fast path when the topology declares
	// mean-field eligibility (see MeanFielder) and the general engine
	// otherwise. This is the default.
	EngineAuto Engine = iota
	// EngineGeneral forces the per-vertex sampling engine, e.g. for A/B
	// validation against the mean-field path.
	EngineGeneral
	// EngineMeanField requires the mean-field fast path; New fails if the
	// topology does not declare eligibility.
	EngineMeanField
)

// String implements fmt.Stringer with the spec-level names.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineGeneral:
		return "general"
	case EngineMeanField:
		return "mean-field"
	default:
		return fmt.Sprintf("Engine(%d)", uint8(e))
	}
}

// ParseEngine converts the spec-level engine name; "" means EngineAuto.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "auto":
		return EngineAuto, nil
	case "general":
		return EngineGeneral, nil
	case "mean-field":
		return EngineMeanField, nil
	default:
		return EngineAuto, fmt.Errorf("dynamics: unknown engine %q (want \"auto\", \"general\", or \"mean-field\")", s)
	}
}

// ResolveEngine reports which engine New selects for the requested mode on
// g: EngineAuto resolves to EngineMeanField exactly when the topology
// declares mean-field eligibility. The returned value is always
// EngineGeneral or EngineMeanField; a forced EngineMeanField is returned
// as requested even when ineligible (New then fails with the reason).
func ResolveEngine(e Engine, g Topology) Engine {
	switch e {
	case EngineGeneral:
		return EngineGeneral
	case EngineMeanField:
		return EngineMeanField
	default:
		if mf, ok := g.(MeanFielder); ok && mf.MeanFieldEligible() {
			return EngineMeanField
		}
		return EngineGeneral
	}
}

// TieRule determines the adopted opinion when the k sampled neighbours
// split evenly (even k only; for odd k the rule is never consulted).
type TieRule uint8

const (
	// TieKeep keeps the vertex's current opinion on a tie (rule (i) in the
	// paper's introduction).
	TieKeep TieRule = iota
	// TieRandom adopts a uniformly random opinion among the tied ones
	// (rule (ii)).
	TieRandom
)

// String implements fmt.Stringer.
func (t TieRule) String() string {
	switch t {
	case TieKeep:
		return "keep"
	case TieRandom:
		return "random"
	default:
		return fmt.Sprintf("TieRule(%d)", uint8(t))
	}
}

// Rule describes a Best-of-k protocol instance.
type Rule struct {
	// K is the number of neighbours sampled per vertex per round; must be
	// at least 1. K = 3 is the paper's protocol.
	K int
	// Tie is the tie-breaking rule for even K.
	Tie TieRule
	// WithoutReplacement samples K distinct neighbours instead of the
	// paper's with-replacement sampling. Vertices with degree < K fall
	// back to with-replacement sampling. Used by the ablation bench.
	WithoutReplacement bool
	// Noise is the per-sample misreporting probability: each sampled
	// opinion is independently flipped with this probability before the
	// majority is taken. 0 is the paper's noiseless protocol; the E19
	// extension sweeps the noise threshold. Must lie in [0, 1/2].
	Noise float64
}

// BestOfThree is the paper's protocol: 3 samples with replacement.
var BestOfThree = Rule{K: 3}

// Voter is the Best-of-1 baseline (the classical voter model).
var Voter = Rule{K: 1}

// BestOfTwo is the Best-of-2 baseline with the keep-own tie rule of
// Cooper–Elsässer–Radzik.
var BestOfTwo = Rule{K: 2, Tie: TieKeep}

// Validate reports whether the rule is well-formed.
func (r Rule) Validate() error {
	if r.K < 1 {
		return fmt.Errorf("dynamics: rule K = %d, want >= 1", r.K)
	}
	if !(r.Noise >= 0 && r.Noise <= 0.5) {
		return fmt.Errorf("dynamics: rule noise = %v, want in [0, 0.5]", r.Noise)
	}
	return nil
}

// Name returns a short identifier such as "best-of-3" or
// "best-of-2/random".
func (r Rule) Name() string {
	s := fmt.Sprintf("best-of-%d", r.K)
	if r.K%2 == 0 {
		s += "/" + r.Tie.String()
	}
	if r.WithoutReplacement {
		s += "/noreplace"
	}
	if r.Noise > 0 {
		s += fmt.Sprintf("/noise=%.3g", r.Noise)
	}
	return s
}

// Process is a running dynamic on a fixed graph. It owns two configuration
// buffers and one RNG stream. A Process is not safe for concurrent use by
// multiple goroutines, and Step starts none.
type Process struct {
	g      Topology
	rule   Rule
	cur    *opinion.Config
	next   *opinion.Config
	round  int
	engine Engine

	// src is the process's one stream: the mean-field step draws from it
	// directly, the general engine through kern's buffer.
	src  *rng.Source
	kern kernel

	// Mean-field state: the blue count is the whole configuration. cur is
	// materialised from it lazily (mfDirty tracks staleness) so Config()
	// stays correct while Step stays O(1).
	mfBlues int
	mfDirty bool

	// Zealot mask (nil without zealots): frozenMask marks the stubborn
	// vertices word by word and frozenBits holds their initial opinions.
	frozenMask []uint64
	frozenBits []uint64
}

// Options configures a Process.
type Options struct {
	// Seed drives all sampling; equal seeds give identical trajectories.
	Seed uint64
	// Engine selects the per-round implementation; the zero value
	// (EngineAuto) uses the mean-field fast path on eligible topologies.
	Engine Engine
	// Stubborn lists zealot vertices that keep their initial opinion
	// forever (duplicates allowed). It is the dynamic analogue of the
	// Sprinkling process's artificial always-Blue vertices (Section 3 of
	// the paper); E15 measures how many the Red majority tolerates.
	// Zealots break mean-field exchangeability, so a non-empty set runs
	// the general engine: EngineAuto resolves to it and EngineMeanField is
	// an error.
	Stubborn []int
}

// New returns a Process evolving init under the rule on g. The initial
// configuration is copied; the caller's value is not mutated.
func New(g Topology, rule Rule, init *opinion.Config, opt Options) (*Process, error) {
	if err := rule.Validate(); err != nil {
		return nil, err
	}
	if g.N() != init.N() {
		return nil, fmt.Errorf("dynamics: graph has %d vertices, configuration has %d", g.N(), init.N())
	}
	if g.N() > 0 && g.MinDegree() == 0 {
		return nil, fmt.Errorf("dynamics: graph %s has an isolated vertex; every vertex must be able to sample a neighbour", g.Name())
	}
	engine := ResolveEngine(opt.Engine, g)
	if len(opt.Stubborn) > 0 {
		if opt.Engine == EngineMeanField {
			return nil, fmt.Errorf("dynamics: stubborn vertices require the general engine (frozen vertices break mean-field exchangeability)")
		}
		engine = EngineGeneral
	}
	if engine == EngineMeanField {
		mf, ok := g.(MeanFielder)
		if !ok || !mf.MeanFieldEligible() {
			return nil, fmt.Errorf("dynamics: engine %q requested but topology %s does not declare mean-field eligibility", EngineMeanField, g.Name())
		}
	}
	p := &Process{
		g:       g,
		rule:    rule,
		cur:     init.Clone(),
		next:    opinion.NewConfig(g.N()),
		engine:  engine,
		src:     rng.NewFrom(opt.Seed, 0),
		mfBlues: init.Blues(),
	}
	if engine == EngineGeneral {
		p.kern = newKernel(g, rule, p.src)
	}
	n := g.N()
	if len(opt.Stubborn) > 0 {
		p.frozenMask = make([]uint64, len(p.cur.BlueSet().Words()))
		for _, v := range opt.Stubborn {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("dynamics: stubborn vertex %d out of range [0,%d)", v, n)
			}
			p.frozenMask[v>>6] |= 1 << (uint(v) & 63)
		}
		p.frozenBits = append([]uint64(nil), p.cur.BlueSet().Words()...)
	}
	return p, nil
}

// Round returns the number of completed rounds.
func (p *Process) Round() int { return p.round }

// Engine returns the resolved engine executing the rounds (EngineGeneral
// or EngineMeanField, never EngineAuto).
func (p *Process) Engine() Engine { return p.engine }

// Config returns the current configuration. The returned value aliases
// live process state — do not mutate it — and is invalidated by the next
// Step; Clone it to keep a snapshot. Under the mean-field engine the
// configuration is materialised on demand in canonical form (blue count b
// ⇒ vertices [0, b) blue), which is distribution-preserving because the
// topology is exchangeable; prefer Blues or Consensus when only counts are
// needed.
func (p *Process) Config() *opinion.Config {
	if p.mfDirty {
		p.cur.SetBluePrefix(p.mfBlues)
		p.mfDirty = false
	}
	return p.cur
}

// Blues returns the current number of Blue vertices: O(1) under the
// mean-field engine, a popcount otherwise.
func (p *Process) Blues() int {
	if p.engine == EngineMeanField {
		return p.mfBlues
	}
	return p.cur.Blues()
}

// Consensus reports whether every vertex holds one opinion, without
// materialising mean-field state.
func (p *Process) Consensus() bool {
	b := p.Blues()
	return b == 0 || b == p.g.N()
}

// Majority returns the majority colour (ties go to Red), without
// materialising mean-field state.
func (p *Process) Majority() opinion.Colour { return majority(p.Blues(), p.g.N()) }

// SetBlueCount replaces the current configuration with the canonical one
// holding exactly b Blue vertices (vertices [0, b) blue). O(1) under the
// mean-field engine, O(n/64) otherwise. On exchangeable topologies this is
// the exact-count initial condition matching markov.Chain's
// PointDistribution; benchmarks use it to hold the process in a mixed
// state across timed rounds.
func (p *Process) SetBlueCount(b int) {
	if b < 0 || b > p.g.N() {
		panic("dynamics: SetBlueCount out of range")
	}
	p.mfBlues = b
	if p.engine == EngineMeanField {
		p.mfDirty = true
		return
	}
	p.cur.SetBluePrefix(b)
}

// Step performs one synchronous round. All vertices sample from the
// pre-round configuration, so the update is a simultaneous one as the paper
// requires. Zealots are restored after the full round: every vertex,
// zealots included, draws its samples as usual, and the zealots then
// ignore their computed update. The general engine runs the vertex kernel
// over the vertices in order, assembling each 64-vertex block's results in
// a register and storing them with one write.
func (p *Process) Step() {
	if p.g.N() == 0 {
		p.round++
		return
	}
	if p.engine == EngineMeanField {
		p.stepMeanField()
		p.round++
		return
	}
	n := p.g.N()
	cur := p.cur.BlueSet().Words()
	next := p.next.BlueSet()
	kn := &p.kern
	for base := 0; base < n; base += 64 {
		end := min(base+64, n)
		var out uint64
		for v := base; v < end; v++ {
			out |= kn.update(cur, v) << (uint(v) & 63)
		}
		next.SetWord(base>>6, out)
	}
	p.cur, p.next = p.next, p.cur
	if p.frozenMask != nil {
		words := p.cur.BlueSet().Words()
		for i, m := range p.frozenMask {
			words[i] = words[i]&^m | p.frozenBits[i]&m
		}
	}
	p.round++
}
