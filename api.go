package repro

import (
	"repro/internal/core"
	"repro/internal/dynamics"
	"repro/internal/graph"
	"repro/internal/rng"
)

// Re-exported core types. The aliases keep the public surface in one place
// while the implementations live in focused internal packages.
type (
	// Report summarises one protocol run; see core.Report.
	Report = core.Report
	// Precondition is the Theorem 1 hypothesis check; see
	// core.Precondition.
	Precondition = core.Precondition
	// Topology is the neighbour-query interface accepted by the engine:
	// any graph-like type with N, Degree, Neighbor, MinDegree and Name.
	Topology = core.Topology
	// Rule selects a Best-of-k protocol; see dynamics.Rule.
	Rule = dynamics.Rule
	// Graph is the CSR graph produced by the generators.
	Graph = graph.Graph
	// RNG is the deterministic random source used across the library.
	RNG = rng.Source
)

// Protocol rules.
var (
	// BestOfThree is the paper's protocol.
	BestOfThree = dynamics.BestOfThree
	// BestOfTwo is the two-sample baseline with keep-own ties.
	BestOfTwo = dynamics.BestOfTwo
	// Voter is the Best-of-1 voter-model baseline.
	Voter = dynamics.Voter
)

// NewRNG returns a deterministic random source for the given seed.
func NewRNG(seed uint64) *RNG { return rng.New(seed) }

// CheckPrecondition evaluates Theorem 1's hypotheses on a concrete
// instance.
func CheckPrecondition(g Topology, delta float64) Precondition {
	return core.CheckPrecondition(g, delta)
}

// Graph generators, re-exported from internal/graph.

// Complete returns the complete graph K_n (materialised; see CompleteVirtual
// for large n).
func Complete(n int) *Graph { return graph.Complete(n) }

// CompleteVirtual returns a virtual K_n that answers neighbour queries
// without storing Θ(n²) edges.
func CompleteVirtual(n int) Topology { return graph.NewKn(n) }

// RandomRegular returns a random d-regular simple graph (n·d even, d < n).
func RandomRegular(n, d int, src *RNG) *Graph { return graph.RandomRegular(n, d, src) }

// Gnp returns an Erdős–Rényi G(n, p) graph.
func Gnp(n int, p float64, src *RNG) *Graph { return graph.Gnp(n, p, src) }

// DenseMinDegree returns a member of the paper's class with minimum degree
// ⌈n^alpha⌉ (a random regular graph, or K_n when alpha = 1).
func DenseMinDegree(n int, alpha float64, src *RNG) *Graph {
	return graph.DenseMinDegree(n, alpha, src)
}

// Cycle returns the n-cycle, a constant-degree graph outside the paper's
// dense class.
func Cycle(n int) *Graph { return graph.Cycle(n) }

// Torus2D returns the rows×cols torus.
func Torus2D(rows, cols int) *Graph { return graph.Torus2D(rows, cols) }

// Hypercube returns the dim-dimensional hypercube.
func Hypercube(dim int) *Graph { return graph.Hypercube(dim) }

// SBM returns a two-community stochastic block model graph.
func SBM(a, b int, pin, pout float64, src *RNG) *Graph {
	return graph.SBM(a, b, pin, pout, src)
}
