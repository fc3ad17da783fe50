package bitset

import (
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 1000} {
		s := New(n)
		if s.Len() != n {
			t.Fatalf("New(%d).Len() = %d", n, s.Len())
		}
		if s.Count() != 0 {
			t.Fatalf("New(%d).Count() = %d", n, s.Count())
		}
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestSetGetClear(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Get(i) {
			t.Fatalf("fresh bit %d set", i)
		}
		s.Set(i)
		if !s.Get(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
		s.Clear(i)
		if s.Get(i) {
			t.Fatalf("bit %d set after Clear", i)
		}
	}
}

func TestSetToAndCount(t *testing.T) {
	s := New(200)
	for i := 0; i < 200; i += 3 {
		s.SetTo(i, true)
	}
	want := 0
	for i := 0; i < 200; i += 3 {
		want++
	}
	if got := s.Count(); got != want {
		t.Errorf("Count = %d, want %d", got, want)
	}
	for i := 0; i < 200; i += 3 {
		s.SetTo(i, false)
	}
	if got := s.Count(); got != 0 {
		t.Errorf("Count after clearing = %d", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for name, fn := range map[string]func(){
		"Get(-1)":   func() { s.Get(-1) },
		"Get(10)":   func() { s.Get(10) },
		"Set(-1)":   func() { s.Set(-1) },
		"Set(10)":   func() { s.Set(10) },
		"Clear(-1)": func() { s.Clear(-1) },
		"Clear(10)": func() { s.Clear(10) },
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

func TestFillAndAll(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 129} {
		s := New(n)
		s.Fill()
		if got := s.Count(); got != n {
			t.Errorf("Fill on len %d: Count = %d", n, got)
		}
		if !s.All() {
			t.Errorf("Fill on len %d: All = false", n)
		}
	}
}

func TestAllEmptySet(t *testing.T) {
	if !New(0).All() {
		t.Error("empty set All() = false, want vacuous true")
	}
}

func TestFlipAllTrims(t *testing.T) {
	s := New(70)
	s.FlipAll()
	if got := s.Count(); got != 70 {
		t.Errorf("FlipAll of empty 70-bit set: Count = %d, want 70", got)
	}
	s.FlipAll()
	if got := s.Count(); got != 0 {
		t.Errorf("double FlipAll: Count = %d, want 0", got)
	}
}

func TestReset(t *testing.T) {
	s := New(100)
	s.Fill()
	s.Reset()
	if got := s.Count(); got != 0 {
		t.Errorf("Reset left %d bits set", got)
	}
}

func TestCloneIndependent(t *testing.T) {
	s := New(64)
	s.Set(5)
	c := s.Clone()
	if !c.Equal(s) {
		t.Fatal("clone not equal to original")
	}
	c.Set(6)
	if s.Get(6) {
		t.Error("mutating clone changed original")
	}
}

func TestEqualDifferentLengths(t *testing.T) {
	if New(10).Equal(New(11)) {
		t.Error("sets of different lengths reported equal")
	}
}

func TestSetOps(t *testing.T) {
	a, b := New(130), New(130)
	a.Set(1)
	a.Set(64)
	b.Set(64)
	b.Set(100)

	u := a.Clone()
	u.UnionWith(b)
	if u.Count() != 3 || !u.Get(1) || !u.Get(64) || !u.Get(100) {
		t.Errorf("union has %d bits, want {1, 64, 100}", u.Count())
	}
}

func TestSetOpsLengthMismatchPanics(t *testing.T) {
	a, b := New(10), New(20)
	defer func() {
		if recover() == nil {
			t.Error("UnionWith length mismatch did not panic")
		}
	}()
	a.UnionWith(b)
}

func TestForEachOrder(t *testing.T) {
	s := New(300)
	want := []int{0, 63, 64, 65, 128, 299}
	for _, i := range want {
		s.Set(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", got, want)
		}
	}
}

func TestWordsReflectsBits(t *testing.T) {
	s := New(64)
	s.Set(0)
	s.Set(63)
	w := s.Words()
	if len(w) != 1 || w[0] != 1|1<<63 {
		t.Errorf("Words() = %#x", w)
	}
}

// Property: Count equals the number of distinct indices set.
func TestQuickCountMatchesSets(t *testing.T) {
	f := func(idx []uint16) bool {
		s := New(1 << 16)
		uniq := make(map[int]bool)
		for _, i := range idx {
			s.Set(int(i))
			uniq[int(i)] = true
		}
		return s.Count() == len(uniq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: union count is |a| + |b| - |a ∩ b|.
func TestQuickInclusionExclusion(t *testing.T) {
	f := func(ai, bi []uint8) bool {
		a, b := New(256), New(256)
		for _, i := range ai {
			a.Set(int(i))
		}
		for _, i := range bi {
			b.Set(int(i))
		}
		inter := 0
		for i := 0; i < 256; i++ {
			if a.Get(i) && b.Get(i) {
				inter++
			}
		}
		union := a.Clone()
		union.UnionWith(b)
		return union.Count() == a.Count()+b.Count()-inter
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: FlipAll twice is the identity.
func TestQuickDoubleFlipIdentity(t *testing.T) {
	f := func(idx []uint8, nRaw uint16) bool {
		n := int(nRaw)%500 + 1
		s := New(n)
		for _, i := range idx {
			s.Set(int(i) % n)
		}
		orig := s.Clone()
		s.FlipAll()
		s.FlipAll()
		return s.Equal(orig)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCount(b *testing.B) {
	s := New(1 << 17)
	for i := 0; i < s.Len(); i += 7 {
		s.Set(i)
	}
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += s.Count()
	}
	_ = sink
}

func BenchmarkSetGet(b *testing.B) {
	s := New(1 << 17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i & (1<<17 - 1)
		s.Set(idx)
		if !s.Get(idx) {
			b.Fatal("bit not set")
		}
	}
}

func BenchmarkForEach(b *testing.B) {
	s := New(1 << 17)
	for i := 0; i < s.Len(); i += 13 {
		s.Set(i)
	}
	b.ResetTimer()
	var sink int
	for i := 0; i < b.N; i++ {
		s.ForEach(func(j int) { sink += j })
	}
	_ = sink
}

func TestSetFirstN(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130, 256} {
		s := New(n)
		for _, k := range []int{0, 1, n / 2, n} {
			if k > n {
				continue
			}
			// Pre-dirty the set so SetFirstN must clear the tail.
			for i := 0; i < n; i += 3 {
				s.Set(i)
			}
			s.SetFirstN(k)
			if got := s.Count(); got != k {
				t.Fatalf("n=%d SetFirstN(%d): count = %d", n, k, got)
			}
			for i := 0; i < n; i++ {
				if s.Get(i) != (i < k) {
					t.Fatalf("n=%d SetFirstN(%d): bit %d = %v", n, k, i, s.Get(i))
				}
			}
		}
	}
}

func TestSetFirstNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetFirstN out of range did not panic")
		}
	}()
	New(10).SetFirstN(11)
}

func TestSetWord(t *testing.T) {
	s := New(100)
	s.SetWord(0, ^uint64(0))
	if got := s.Count(); got != 64 {
		t.Fatalf("count after full word = %d", got)
	}
	// The last word is masked to the set length: bits ≥ 100 must not leak
	// into Count.
	s.SetWord(1, ^uint64(0))
	if got := s.Count(); got != 100 {
		t.Fatalf("count after masked last word = %d", got)
	}
	s.SetWord(0, 0b1011)
	if !s.Get(0) || !s.Get(1) || s.Get(2) || !s.Get(3) {
		t.Error("SetWord bit pattern wrong")
	}
}

func TestSetWordPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("SetWord out of range did not panic")
		}
	}()
	New(64).SetWord(1, 1)
}
