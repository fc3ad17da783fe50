package experiments

// Extension experiments beyond the paper's headline claims: the q-opinion
// plurality setting of reference [2] (E14), stubborn always-Blue zealots —
// the forward-dynamic realisation of the Sprinkling adversary (E15) — and
// adversarial initial placement, the setting of reference [5] that the
// paper explicitly contrasts with its i.i.d. hypothesis (E16).

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cli"
	"repro/internal/dynamics"
	"repro/internal/opinion"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/table"
)

// E14Row is one q point of the plurality experiment.
type E14Row struct {
	Q             int
	Share0        float64
	MeanRounds    float64
	PluralityWins stats.Proportion
}

// E14Result is the q-opinion plurality-consensus experiment.
type E14Result struct {
	N     int
	Delta float64
	Rows  []E14Row
}

// E14PluralityConsensus runs the E14 registry grid: the q-opinion
// Best-of-Three dynamic on a complete graph with opinion 0 holding share
// 1/q + δ, measuring consensus time and the plurality win rate as q grows:
// the q = 2 row is the paper's setting; larger q reproduces the shape of
// [2] (slower consensus, plurality still winning given the advantage).
func E14PluralityConsensus(cfg Config) E14Result {
	var res E14Result
	for _, rep := range runSweep(cfg, "E14") {
		q := rep.Spec.Variant.Q
		res.N, res.Delta = rep.Spec.Graph.N, rep.Spec.Delta
		res.Rows = append(res.Rows, E14Row{
			Q:             q,
			Share0:        1/float64(q) + rep.Spec.Delta,
			MeanRounds:    rep.MeanRounds,
			PluralityWins: redWins(rep),
		})
	}
	return res
}

// RoundsIncreaseWithQ reports whether mean rounds grow monotonically-ish
// (allowing one inversion) across the q sweep.
func (r E14Result) RoundsIncreaseWithQ() bool {
	inversions := 0
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].MeanRounds < r.Rows[i-1].MeanRounds {
			inversions++
		}
	}
	return inversions <= 1
}

// Table renders the result.
func (r E14Result) Table() *table.Table {
	t := table.New(
		fmt.Sprintf("E14 (extension, ref [2]): q-opinion plurality on K_%d, opinion 0 at share 1/q + %.2f", r.N, r.Delta),
		"q", "share of op 0", "mean rounds", "plurality wins")
	for _, row := range r.Rows {
		t.AddRow(row.Q, row.Share0, row.MeanRounds, row.PluralityWins.P)
	}
	return t
}

// E15Row is one zealot-fraction point.
type E15Row struct {
	StubbornFrac  float64
	FinalBlueFrac float64 // mean blue fraction when the run stopped
	RedDominates  stats.Proportion
}

// E15Result is the stubborn-zealot experiment.
type E15Result struct {
	N, D      int
	Delta     float64
	MaxRounds int
	Rows      []E15Row
}

// E15StubbornZealots runs the E15 registry grid: a fraction of
// permanently-Blue vertices in a red-majority dense graph, measuring the
// blue mass when the run stops (at the row's round cap whenever zealots
// rule out consensus) — the forward analogue of the Sprinkling process's
// artificial Blue vertices. The paper's machinery tolerates ~ε·n ≈
// 3^T·n/d artificial blues; the dynamic correspondingly absorbs small
// zealot sets without losing the red majority, while a zealot mass
// comparable to δ·n flips the outcome.
func E15StubbornZealots(cfg Config) E15Result {
	var res E15Result
	for _, rep := range runSweep(cfg, "E15") {
		finals := finalBlue(rep)
		res.N, res.D = rep.Spec.Graph.N, rep.Spec.Graph.D
		res.Delta, res.MaxRounds = rep.Spec.Delta, rep.Spec.MaxRounds
		res.Rows = append(res.Rows, E15Row{
			StubbornFrac:  rep.Spec.Variant.StubbornFrac,
			FinalBlueFrac: stats.Summarize(finals).Mean,
			RedDominates:  shareBelow(finals, 0.5),
		})
	}
	return res
}

// Table renders the result.
func (r E15Result) Table() *table.Table {
	t := table.New(
		fmt.Sprintf("E15 (extension, Sprinkling adversary): stubborn blue zealots on regular n=%d d=%d, delta=%.2f, %d-round cap", r.N, r.D, r.Delta, r.MaxRounds),
		"zealot frac", "final blue frac", "red majority holds")
	for _, row := range r.Rows {
		t.AddRow(row.StubbornFrac, row.FinalBlueFrac, row.RedDominates.P)
	}
	return t
}

// E16Row is one (placement, topology) cell.
type E16Row struct {
	Family     string
	Placement  string
	MeanRounds float64
	RedWins    stats.Proportion
}

// E16Result is the adversarial-placement experiment.
type E16Result struct {
	N         int
	BlueCount int
	Rows      []E16Row
}

// E16AdversarialPlacement fixes the *number* of blue vertices (the
// adversarial model of Cooper et al. [5]) and compares i.i.d.-equivalent
// random placement against an adversarially clustered placement (blues
// packed into a ball around a vertex). On dense regular graphs placement
// barely matters — one round mixes the samples — while on the sparse torus
// a clustered minority survives far longer, illustrating why the paper's
// i.i.d. hypothesis and density assumption buy the double-log speed that
// adversarial analyses cannot. The start is not i.i.d., so the row drives
// the engine directly on topologies built from the shared family flags'
// specs (d = ⌈n^0.6⌉ regular, the ⌈√n⌉-side torus).
func E16AdversarialPlacement(cfg Config) E16Result {
	n := cfg.MaxN
	const blueFrac = 0.4
	blueCount := int(blueFrac * float64(n))
	res := E16Result{N: n, BlueCount: blueCount}
	for _, family := range []string{"regular", "torus"} {
		gs, err := (&cli.GraphFlags{Family: family, N: n, Alpha: 0.6}).Spec(cfg.Seed)
		if err != nil {
			panic(err) // fixed, valid family parameters
		}
		g, err := gs.Build()
		if err != nil {
			panic(err)
		}
		for _, placement := range []string{"random", "clustered"} {
			outs := sim.RunOutcomes(cfg.Trials, cfg.Seed+uint64(len(res.Rows)), cfg.Workers, func(i int, src *rng.Source) sim.Outcome {
				init := placeBlues(g, blueCount, placement == "clustered", src)
				p, err := dynamics.New(g, dynamics.BestOfThree, init, dynamics.Options{Seed: src.Uint64()})
				if err != nil {
					panic(err)
				}
				r := run(p, maxRounds)
				return sim.Outcome{Rounds: float64(r.Rounds), Win: r.Consensus && r.Winner == opinion.Red}
			})
			res.Rows = append(res.Rows, E16Row{
				Family:     gs.Family,
				Placement:  placement,
				MeanRounds: stats.Summarize(sim.RoundsOf(outs)).Mean,
				RedWins:    stats.WilsonInterval(sim.Wins(outs), len(outs), 1.96),
			})
		}
	}
	return res
}

// placeBlues colours exactly count vertices blue: uniformly at random, or
// clustered as a BFS ball around a random centre.
func placeBlues(g dynamics.Topology, count int, clustered bool, src *rng.Source) *opinion.Config {
	n := g.N()
	init := opinion.NewConfig(n)
	if count >= n {
		init.FillBlue()
		return init
	}
	if !clustered {
		// Partial Fisher-Yates over vertex ids.
		perm := src.Perm(n)
		for _, v := range perm[:count] {
			init.Set(v, opinion.Blue)
		}
		return init
	}
	// BFS ball from a random centre until count vertices are collected.
	centre := src.Intn(n)
	seen := make([]bool, n)
	queue := []int{centre}
	seen[centre] = true
	collected := 0
	for len(queue) > 0 && collected < count {
		v := queue[0]
		queue = queue[1:]
		init.Set(v, opinion.Blue)
		collected++
		deg := g.Degree(v)
		// Deterministic neighbour order keeps the ball compact.
		nbrs := make([]int, deg)
		for i := 0; i < deg; i++ {
			nbrs[i] = g.Neighbor(v, i)
		}
		sort.Ints(nbrs)
		for _, w := range nbrs {
			if !seen[w] {
				seen[w] = true
				queue = append(queue, w)
			}
		}
	}
	return init
}

// SlowdownOnTorus returns mean rounds clustered/random on the torus, the
// experiment's headline ratio.
func (r E16Result) SlowdownOnTorus() float64 {
	var clustered, random float64
	for _, row := range r.Rows {
		if row.Family != "torus" {
			continue
		}
		if row.Placement == "clustered" {
			clustered = row.MeanRounds
		} else {
			random = row.MeanRounds
		}
	}
	if random == 0 {
		return math.NaN()
	}
	return clustered / random
}

// Table renders the result.
func (r E16Result) Table() *table.Table {
	t := table.New(
		fmt.Sprintf("E16 (extension, ref [5] contrast): placement of %d blues on n=%d", r.BlueCount, r.N),
		"family", "placement", "mean rounds", "red wins")
	for _, row := range r.Rows {
		t.AddRow(row.Family, row.Placement, row.MeanRounds, row.RedWins.P)
	}
	return t
}
