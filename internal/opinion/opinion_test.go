package opinion

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestColourString(t *testing.T) {
	if Red.String() != "R" || Blue.String() != "B" {
		t.Errorf("colour strings: %q %q", Red, Blue)
	}
}

func TestNewConfigAllRed(t *testing.T) {
	c := NewConfig(100)
	if c.N() != 100 || c.Blues() != 0 {
		t.Errorf("fresh config: N=%d B=%d", c.N(), c.Blues())
	}
	col, ok := c.IsConsensus()
	if !ok || col != Red {
		t.Error("all-red config should be red consensus")
	}
}

func TestSetGet(t *testing.T) {
	c := NewConfig(10)
	c.Set(3, Blue)
	if c.Get(3) != Blue {
		t.Error("Get after Set(Blue)")
	}
	c.Set(3, Red)
	if c.Get(3) != Red {
		t.Error("Get after Set(Red)")
	}
}

func TestCountsAndFraction(t *testing.T) {
	c := NewConfig(8)
	for _, v := range []int{0, 1, 2} {
		c.Set(v, Blue)
	}
	if c.Blues() != 3 {
		t.Errorf("B=%d", c.Blues())
	}
	if got := c.BlueFraction(); got != 3.0/8 {
		t.Errorf("BlueFraction = %v", got)
	}
}

func TestEmptyConfig(t *testing.T) {
	c := NewConfig(0)
	if c.BlueFraction() != 0 {
		t.Error("empty BlueFraction nonzero")
	}
	if col, ok := c.IsConsensus(); !ok || col != Red {
		t.Error("empty config should be red consensus")
	}
	if c.Majority() != Red {
		t.Error("empty majority should be red")
	}
}

func TestMajority(t *testing.T) {
	c := NewConfig(4)
	if c.Majority() != Red {
		t.Error("all red majority")
	}
	c.Set(0, Blue)
	c.Set(1, Blue)
	if c.Majority() != Red {
		t.Error("tie should go red")
	}
	c.Set(2, Blue)
	if c.Majority() != Blue {
		t.Error("3/4 blue majority")
	}
}

func TestIsConsensus(t *testing.T) {
	c := NewConfig(5)
	if _, ok := c.IsConsensus(); !ok {
		t.Error("all-red not consensus")
	}
	c.Set(2, Blue)
	if _, ok := c.IsConsensus(); ok {
		t.Error("mixed config reported consensus")
	}
	c.FillBlue()
	if col, ok := c.IsConsensus(); !ok || col != Blue {
		t.Error("all-blue not blue consensus")
	}
}

func TestRandomConfigFrequency(t *testing.T) {
	src := rng.New(1)
	const n = 100000
	for _, p := range []float64{0.0, 0.3, 0.5, 1.0} {
		c := RandomConfig(n, p, src)
		got := c.BlueFraction()
		if math.Abs(got-p) > 0.01 {
			t.Errorf("RandomConfig(p=%v) fraction = %v", p, got)
		}
	}
}

func TestCloneCopyEqual(t *testing.T) {
	src := rng.New(2)
	a := RandomConfig(200, 0.4, src)
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone differs")
	}
	b.Set(0, Blue)
	b.Set(1, Blue)
	a.Set(0, Red)
	a.Set(1, Red)
	if a.Equal(b) {
		t.Fatal("diverged configs reported equal")
	}
}

func TestFromColours(t *testing.T) {
	c := FromColours([]Colour{Red, Blue, Blue, Red})
	if c.N() != 4 || c.Blues() != 2 {
		t.Errorf("FromColours: N=%d B=%d", c.N(), c.Blues())
	}
	if c.Get(1) != Blue || c.Get(3) != Red {
		t.Error("FromColours wrong colours")
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	c := FromColours([]Colour{Red, Blue, Red})
	if got := c.String(); got != "RBR" {
		t.Errorf("String = %q", got)
	}
	big := NewConfig(100)
	if got := big.String(); got != "config(n=100,blue=0)" {
		t.Errorf("big String = %q", got)
	}
}

// Property: a random configuration has n vertices, at most n of them
// Blue (no bit past n is counted), so its Red count N()−Blues() is never
// negative.
func TestQuickCountsSum(t *testing.T) {
	f := func(seed uint64, nRaw uint16, pRaw uint8) bool {
		n := int(nRaw) % 2000
		c := RandomConfig(n, float64(pRaw)/255, rng.New(seed))
		return c.N() == n && c.N()-c.Blues() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

var configSink *Config

// BenchmarkRandomConfig draws the initial colouring of a mean-field job
// in the open-loop load's shape: n = 2¹⁴ vertices at pBlue = 0.4.
func BenchmarkRandomConfig(b *testing.B) {
	const n = 1 << 14
	src := rng.New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		configSink = RandomConfig(n, 0.4, src)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/vertex")
}

func BenchmarkBlues(b *testing.B) {
	c := RandomConfig(1<<17, 0.45, rng.New(1))
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += c.Blues()
	}
	_ = sink
}

func TestSetBluePrefix(t *testing.T) {
	c := NewConfig(150)
	c.Set(149, Blue) // pre-dirty the tail
	c.SetBluePrefix(70)
	if got := c.Blues(); got != 70 {
		t.Fatalf("Blues = %d after SetBluePrefix(70)", got)
	}
	for v := 0; v < 150; v++ {
		want := Red
		if v < 70 {
			want = Blue
		}
		if c.Get(v) != want {
			t.Fatalf("vertex %d = %v after SetBluePrefix(70)", v, c.Get(v))
		}
	}
}
