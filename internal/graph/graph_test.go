package graph

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.N() != 0 || g.M() != 0 {
		t.Errorf("empty graph: N=%d M=%d", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
	if !g.IsConnected() {
		t.Error("empty graph should count as connected")
	}
	if g.MinDegree() != 0 || g.MaxDegree() != 0 || g.AvgDegree() != 0 {
		t.Error("empty graph degree stats should be zero")
	}
}

func TestBuilderBasic(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g := b.Build()
	if g.N() != 4 || g.M() != 4 {
		t.Fatalf("N=%d M=%d, want 4, 4", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int{0, 1, 2, 3} {
		if g.Degree(v) != 2 {
			t.Errorf("Degree(%d) = %d, want 2", v, g.Degree(v))
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge (0,1) missing")
	}
	if g.HasEdge(0, 2) {
		t.Error("phantom edge (0,2)")
	}
}

func TestBuilderDeduplicates(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(0, 1)
	g := b.Build()
	if g.M() != 1 {
		t.Errorf("M = %d after duplicate AddEdge, want 1", g.M())
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestBuilderPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative n":   func() { NewBuilder(-1) },
		"self-loop":    func() { NewBuilder(2).AddEdge(1, 1) },
		"out of range": func() { NewBuilder(2).AddEdge(0, 2) },
		"negative u":   func() { NewBuilder(2).AddEdge(-1, 0) },
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

func TestNeighborAccessor(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 2}, {0, 1}, {0, 3}}, "star4")
	if g.Degree(0) != 3 {
		t.Fatalf("Degree(0) = %d", g.Degree(0))
	}
	// Sorted adjacency: neighbours of 0 are 1, 2, 3 in order.
	for i, want := range []int{1, 2, 3} {
		if got := g.Neighbor(0, i); got != want {
			t.Errorf("Neighbor(0,%d) = %d, want %d", i, got, want)
		}
	}
}

func TestComplete(t *testing.T) {
	g := Complete(10)
	if g.N() != 10 || g.M() != 45 {
		t.Fatalf("K10: N=%d M=%d", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.MinDegree() != 9 || g.MaxDegree() != 9 {
		t.Error("K10 should be 9-regular")
	}
	if g.Diameter() != 1 {
		t.Errorf("K10 diameter = %d", g.Diameter())
	}
}

func TestCycle(t *testing.T) {
	g := Cycle(12)
	if g.M() != 12 {
		t.Errorf("C12: M = %d", g.M())
	}
	if g.MinDegree() != 2 || g.MaxDegree() != 2 {
		t.Error("cycle should be 2-regular")
	}
	if g.Diameter() != 6 {
		t.Errorf("C12 diameter = %d, want 6", g.Diameter())
	}
	if !Cycle(12).IsBipartite() {
		t.Error("even cycle should be bipartite")
	}
	if Cycle(11).IsBipartite() {
		t.Error("odd cycle should not be bipartite")
	}
}

func TestPathStar(t *testing.T) {
	p := Path(5)
	if p.M() != 4 || p.Diameter() != 4 {
		t.Errorf("P5: M=%d diam=%d", p.M(), p.Diameter())
	}
	b := NewBuilder(6)
	for v := 1; v < 6; v++ {
		b.AddEdge(0, v)
	}
	s := b.Build()
	if s.M() != 5 || s.Degree(0) != 5 || s.Diameter() != 2 {
		t.Errorf("star: M=%d deg0=%d diam=%d", s.M(), s.Degree(0), s.Diameter())
	}
}

func TestTorusGrid(t *testing.T) {
	tor := Torus2D(4, 5)
	if tor.N() != 20 || tor.MinDegree() != 4 || tor.MaxDegree() != 4 {
		t.Errorf("torus: N=%d min=%d max=%d", tor.N(), tor.MinDegree(), tor.MaxDegree())
	}
	if err := tor.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("Q4: N=%d M=%d", g.N(), g.M())
	}
	if g.MinDegree() != 4 || g.MaxDegree() != 4 {
		t.Error("Q4 should be 4-regular")
	}
	if g.Diameter() != 4 {
		t.Errorf("Q4 diameter = %d", g.Diameter())
	}
	if !g.IsBipartite() {
		t.Error("hypercube should be bipartite")
	}
}

func TestGnpEdgeCount(t *testing.T) {
	src := rng.New(1)
	n, p := 500, 0.05
	g := Gnp(n, p, src)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	want := p * float64(n) * float64(n-1) / 2
	got := float64(g.M())
	if got < want*0.85 || got > want*1.15 {
		t.Errorf("Gnp(%d, %v): M = %v, want ~%v", n, p, got, want)
	}
}

func TestGnpExtremes(t *testing.T) {
	src := rng.New(2)
	if g := Gnp(100, 0, src); g.M() != 0 {
		t.Errorf("Gnp(p=0) has %d edges", g.M())
	}
	if g := Gnp(50, 1, src); g.M() != 50*49/2 {
		t.Errorf("Gnp(p=1) has %d edges, want %d", g.M(), 50*49/2)
	}
	if g := Gnp(1, 0.5, src); g.N() != 1 || g.M() != 0 {
		t.Error("Gnp(n=1) wrong")
	}
}

func TestGnpPanicsOnBadP(t *testing.T) {
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Gnp(p=%v) did not panic", p)
				}
			}()
			Gnp(10, p, rng.New(1))
		}()
	}
}

func TestRandomRegular(t *testing.T) {
	src := rng.New(4)
	for _, c := range []struct{ n, d int }{
		{10, 3}, {50, 4}, {100, 7}, {64, 16}, {31, 30}, {200, 2},
	} {
		g := RandomRegular(c.n, c.d, src)
		if err := g.Validate(); err != nil {
			t.Fatalf("regular(n=%d,d=%d): %v", c.n, c.d, err)
		}
		for v := 0; v < c.n; v++ {
			if g.Degree(v) != c.d {
				t.Fatalf("regular(n=%d,d=%d): Degree(%d) = %d", c.n, c.d, v, g.Degree(v))
			}
		}
	}
}

func TestRandomRegularDense(t *testing.T) {
	// d > n/2 goes through the complement path.
	src := rng.New(5)
	g := RandomRegular(20, 15, src)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 20; v++ {
		if g.Degree(v) != 15 {
			t.Fatalf("Degree(%d) = %d, want 15", v, g.Degree(v))
		}
	}
}

func TestRandomRegularZeroDegree(t *testing.T) {
	g := RandomRegular(10, 0, rng.New(6))
	if g.M() != 0 {
		t.Errorf("0-regular graph has %d edges", g.M())
	}
}

func TestRandomRegularPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"odd nd": func() { RandomRegular(5, 3, rng.New(1)) },
		"d >= n": func() { RandomRegular(5, 5, rng.New(1)) },
		"neg d":  func() { RandomRegular(5, -1, rng.New(1)) },
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

func TestDenseMinDegree(t *testing.T) {
	src := rng.New(7)
	g := DenseMinDegree(256, 0.5, src)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.MinDegree() < 16 {
		t.Errorf("dense(alpha=0.5, n=256): min degree %d < 16", g.MinDegree())
	}
	exp := g.DensityExponent()
	if exp < 0.45 || exp > 0.65 {
		t.Errorf("density exponent = %v, want ~0.5", exp)
	}
	// alpha = 1 must yield the complete graph.
	k := DenseMinDegree(20, 1, src)
	if k.M() != 20*19/2 {
		t.Errorf("alpha=1: M = %d, want complete", k.M())
	}
}

func TestSBM(t *testing.T) {
	src := rng.New(8)
	g := SBM(200, 200, 0.2, 0.01, src)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	in, out := 0, 0
	for u := 0; u < g.N(); u++ {
		for _, w := range g.Neighbors(u) {
			if (u < 200) == (int(w) < 200) {
				in++
			} else {
				out++
			}
		}
	}
	in, out = in/2, out/2
	wantIn := 0.2 * 2 * float64(200*199/2)
	wantOut := 0.01 * 200 * 200
	if float64(in) < wantIn*0.8 || float64(in) > wantIn*1.2 {
		t.Errorf("SBM within-block edges = %d, want ~%.0f", in, wantIn)
	}
	if float64(out) < wantOut*0.5 || float64(out) > wantOut*1.6 {
		t.Errorf("SBM cross-block edges = %d, want ~%.0f", out, wantOut)
	}
}

func TestBFSDistances(t *testing.T) {
	g := Path(5)
	d := g.BFS(0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Errorf("BFS dist[%d] = %d, want %d", i, d[i], want)
		}
	}
	// Disconnected: two components.
	g2 := FromEdges(4, [][2]int{{0, 1}, {2, 3}}, "2k2")
	d2 := g2.BFS(0)
	if d2[2] != -1 || d2[3] != -1 {
		t.Error("BFS reached disconnected component")
	}
	if g2.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
	if comps := g2.Components(); len(comps) != 2 {
		t.Errorf("Components = %v", comps)
	}
}

func TestBFSOutOfRangeSource(t *testing.T) {
	g := Path(3)
	d := g.BFS(-1)
	for _, v := range d {
		if v != -1 {
			t.Error("BFS from invalid source should mark all unreachable")
		}
	}
}

func TestDiameterDisconnected(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}}, "frag")
	if g.Diameter() != -1 {
		t.Errorf("disconnected diameter = %d, want -1", g.Diameter())
	}
}

func TestSecondEigenvalueComplete(t *testing.T) {
	// For K_n the transition matrix has second eigenvalue 1/(n-1)... in
	// absolute value. For n = 20: 1/19 ≈ 0.0526.
	g := Complete(20)
	l2 := g.SecondEigenvalue(300)
	if l2 > 0.12 {
		t.Errorf("K20 second eigenvalue = %v, want ~0.05", l2)
	}
}

func TestSecondEigenvalueCycle(t *testing.T) {
	// For C_n the second eigenvalue is cos(2π/n), close to 1 for large n.
	g := Cycle(64)
	l2 := g.SecondEigenvalue(400)
	if l2 < 0.9 {
		t.Errorf("C64 second eigenvalue = %v, want ~0.995", l2)
	}
}

func TestSecondEigenvalueDisconnected(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}, {2, 3}}, "2k2")
	if l2 := g.SecondEigenvalue(50); l2 != 1 {
		t.Errorf("disconnected second eigenvalue = %v, want 1", l2)
	}
}

func TestNameFormats(t *testing.T) {
	if got := Complete(5).Name(); got != "complete(n=5)" {
		t.Errorf("Name = %q", got)
	}
	unnamed := NewBuilder(3).Build()
	if got := unnamed.Name(); got == "" {
		t.Error("unnamed graph has empty Name")
	}
}

// Property: every generated Gnp graph validates and has edges within range.
func TestQuickGnpValid(t *testing.T) {
	f := func(seed uint64, nRaw uint8, pRaw uint8) bool {
		n := int(nRaw)%200 + 2
		p := float64(pRaw) / 255
		g := Gnp(n, p, rng.New(seed))
		return g.Validate() == nil && g.M() <= n*(n-1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: RandomRegular always yields a validating d-regular graph.
func TestQuickRandomRegularValid(t *testing.T) {
	f := func(seed uint64, nRaw, dRaw uint8) bool {
		n := int(nRaw)%60 + 4
		d := int(dRaw) % n
		if n*d%2 != 0 {
			d--
		}
		if d < 0 {
			d = 0
		}
		g := RandomRegular(n, d, rng.New(seed))
		if g.Validate() != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if g.Degree(v) != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: complement of complement (via dense RandomRegular path) keeps
// regularity — indirectly covered; here check handshake invariant instead:
// sum of degrees is 2M for arbitrary built graphs.
func TestQuickHandshake(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%100 + 2
		g := Gnp(n, 0.3, rng.New(seed))
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGnpGenerate(b *testing.B) {
	src := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Gnp(2000, 0.05, src)
	}
}

func BenchmarkRandomRegularGenerate(b *testing.B) {
	src := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		RandomRegular(2000, 16, src)
	}
}

func BenchmarkNeighborAccess(b *testing.B) {
	g := RandomRegular(4096, 64, rng.New(1))
	src := rng.New(2)
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		v := i & 4095
		sink += g.Neighbor(v, src.Intn(g.Degree(v)))
	}
	_ = sink
}

func TestWattsStrogatzLattice(t *testing.T) {
	// beta = 0: the pure ring lattice, 2k-regular.
	g := WattsStrogatz(50, 3, 0, rng.New(20))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.M() != 50*3 {
		t.Errorf("lattice M = %d, want 150", g.M())
	}
	for v := 0; v < 50; v++ {
		if g.Degree(v) != 6 {
			t.Fatalf("lattice Degree(%d) = %d, want 6", v, g.Degree(v))
		}
	}
	if !g.IsConnected() {
		t.Error("ring lattice disconnected")
	}
}

func TestWattsStrogatzRewiringShrinksDiameter(t *testing.T) {
	lattice := WattsStrogatz(200, 2, 0, rng.New(21))
	small := WattsStrogatz(200, 2, 0.2, rng.New(21))
	if err := small.Validate(); err != nil {
		t.Fatal(err)
	}
	if small.M() != lattice.M() {
		t.Errorf("rewiring changed edge count: %d vs %d", small.M(), lattice.M())
	}
	if !small.IsConnected() {
		t.Skip("rewired instance disconnected; rare but possible")
	}
	if dl, ds := lattice.Diameter(), small.Diameter(); ds >= dl {
		t.Errorf("rewiring did not shrink diameter: %d -> %d", dl, ds)
	}
}

func TestWattsStrogatzPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"k zero":    func() { WattsStrogatz(10, 0, 0.1, rng.New(1)) },
		"k too big": func() { WattsStrogatz(10, 5, 0.1, rng.New(1)) },
		"bad beta":  func() { WattsStrogatz(10, 2, 1.5, rng.New(1)) },
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

func TestGnpEdgeInclusionUniform(t *testing.T) {
	// Each of the 10 edge slots of K5 must appear with frequency ~p: the
	// geometric-skipping enumeration must not favour early or late slots.
	const n, p, trials = 5, 0.3, 20000
	counts := make(map[[2]int]int)
	src := rng.New(33)
	for i := 0; i < trials; i++ {
		g := Gnp(n, p, src)
		for u := 0; u < n; u++ {
			for _, w := range g.Neighbors(u) {
				if u < int(w) {
					counts[[2]int{u, int(w)}]++
				}
			}
		}
	}
	if len(counts) != 10 {
		t.Fatalf("only %d distinct slots seen", len(counts))
	}
	for e, c := range counts {
		freq := float64(c) / trials
		if freq < p-0.02 || freq > p+0.02 {
			t.Errorf("edge %v frequency %.4f, want ~%.2f", e, freq, p)
		}
	}
}

// TestNewCSRRejectsMalformedOffsets: NewCSR must return errors — never
// panic — on offsets arrays that pass the endpoint checks but are not
// valid slice bounds. The [0, 100, 0] case is the regression: with empty
// adjacency it satisfies offsets[0]==0 and offsets[n]==len(adj), and a
// pairwise monotonicity check interleaved with slicing would panic on
// adj[0:100] before reaching the non-monotone pair.
func TestNewCSRRejectsMalformedOffsets(t *testing.T) {
	cases := []struct {
		name    string
		offsets []int32
		adj     []int32
	}{
		{"spike-then-drop", []int32{0, 100, 0}, nil},
		{"negative-dip", []int32{0, -4, 0}, nil},
		{"spike-past-adj", []int32{0, 100, 2}, []int32{1, 0}},
		{"bad-first", []int32{3, 2}, []int32{1, 0}},
		{"bad-last", []int32{0, 5}, []int32{1, 0}},
		{"adj-without-offsets", nil, []int32{1, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("NewCSR panicked: %v", r)
				}
			}()
			if _, err := NewCSR(tc.offsets, tc.adj, "bad"); err == nil {
				t.Fatal("NewCSR accepted malformed CSR arrays")
			}
		})
	}
}

// TestNewCSRValid: well-formed CSR arrays round-trip through NewCSR with
// the adopted storage intact (a path graph 0-1-2).
func TestNewCSRValid(t *testing.T) {
	g, err := NewCSR([]int32{0, 1, 3, 4}, []int32{1, 0, 2, 1}, "path3")
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("N=%d M=%d, want 3/2", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
