package bus

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// drain pops everything currently buffered.
func drain(s *Subscription) []Event {
	var out []Event
	for {
		ev, ok := s.Next()
		if !ok {
			return out
		}
		out = append(out, ev)
	}
}

func TestPublishSubscribeTail(t *testing.T) {
	b := New()
	b.Topic("t", 16)
	snap, sub, ok := b.Subscribe("t", 8, 0)
	if !ok {
		t.Fatal("subscribe to explicit topic failed")
	}
	defer sub.Cancel()
	if len(snap) != 0 {
		t.Fatalf("snapshot of fresh topic = %d events, want 0", len(snap))
	}
	for i := 0; i < 3; i++ {
		b.Publish("t", "x", i)
	}
	got := drain(sub)
	if len(got) != 3 {
		t.Fatalf("tail delivered %d events, want 3", len(got))
	}
	for i, ev := range got {
		if ev.Seq != uint64(i+1) || ev.Type != "x" || ev.Data.(int) != i || ev.Dropped != 0 {
			t.Errorf("event %d = %+v", i, ev)
		}
	}
}

func TestSubscribeUnknownTopic(t *testing.T) {
	b := New()
	if _, _, ok := b.Subscribe("nope", 8, 0); ok {
		t.Fatal("subscribe to unknown topic succeeded")
	}
}

func TestSnapshotThenTailNoGapNoDup(t *testing.T) {
	b := New()
	for i := 0; i < 5; i++ {
		b.Publish("t", "x", i)
	}
	snap, sub, ok := b.Subscribe("t", 8, 0)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer sub.Cancel()
	b.Publish("t", "x", 5)
	all := append(append([]Event(nil), snap...), drain(sub)...)
	if len(all) != 6 {
		t.Fatalf("snapshot+tail delivered %d events, want 6", len(all))
	}
	for i, ev := range all {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d, want %d (gap or duplicate)", i, ev.Seq, i+1)
		}
	}
}

func TestResumeAfterSeq(t *testing.T) {
	b := New()
	for i := 0; i < 5; i++ {
		b.Publish("t", "x", i)
	}
	snap, sub, _ := b.Subscribe("t", 8, 3)
	defer sub.Cancel()
	if len(snap) != 2 || snap[0].Seq != 4 || snap[1].Seq != 5 {
		t.Fatalf("resume snapshot = %+v, want seqs 4,5", snap)
	}
}

func TestOverflowDropsOldestAndCounts(t *testing.T) {
	b := New()
	b.Topic("t", 64)
	_, sub, _ := b.Subscribe("t", 4, 0)
	defer sub.Cancel()
	for i := 0; i < 10; i++ {
		b.Publish("t", "x", i)
	}
	got := drain(sub)
	if len(got) != 4 {
		t.Fatalf("wedged subscriber drained %d events, want ring size 4", len(got))
	}
	// Oldest 6 dropped; survivors are 6..9, and the first delivered frame
	// reports the loss.
	if got[0].Data.(int) != 6 || got[0].Dropped != 6 {
		t.Errorf("first frame after overflow = %+v, want data 6 dropped 6", got[0])
	}
	for _, ev := range got[1:] {
		if ev.Dropped != 0 {
			t.Errorf("later frame carries dropped %d, want 0: %+v", ev.Dropped, ev)
		}
	}
	if st := b.Stats(); st.Dropped != 6 || st.Published != 10 {
		t.Errorf("bus stats = %+v, want 10 published 6 dropped", st)
	}
}

func TestRetentionCapDropsOldestFromSnapshot(t *testing.T) {
	b := New()
	b.Topic("t", 4)
	for i := 0; i < 10; i++ {
		b.Publish("t", "x", i)
	}
	snap, sub, _ := b.Subscribe("t", 8, 0)
	sub.Cancel()
	if len(snap) != 4 || snap[0].Seq != 7 || snap[3].Seq != 10 {
		t.Fatalf("snapshot after retention overflow = %+v, want seqs 7..10", snap)
	}
}

func TestEphemeralSkipsSnapshot(t *testing.T) {
	b := New()
	b.Topic("t", 16)
	_, live, _ := b.Subscribe("t", 8, 0)
	defer live.Cancel()
	b.Publish("t", "cell", 1)
	b.PublishEphemeral("t", "round", 2)
	if got := drain(live); len(got) != 2 {
		t.Fatalf("attached subscriber got %d events, want both", len(got))
	}
	snap, late, _ := b.Subscribe("t", 8, 0)
	late.Cancel()
	if len(snap) != 1 || snap[0].Type != "cell" {
		t.Fatalf("late snapshot = %+v, want only the retained cell event", snap)
	}
}

func TestTypeFilter(t *testing.T) {
	b := New()
	b.Topic("t", 16)
	b.Publish("t", "cell", 0)
	b.Publish("t", "round", 1)
	snap, sub, _ := b.Subscribe("t", 4, 0, "cell", "sweep")
	defer sub.Cancel()
	if len(snap) != 1 || snap[0].Type != "cell" {
		t.Fatalf("filtered snapshot = %+v, want the cell event only", snap)
	}
	for i := 0; i < 10; i++ {
		b.Publish("t", "round", i) // must not occupy the ring or count drops
	}
	b.Publish("t", "sweep", "fin")
	got := drain(sub)
	if len(got) != 1 || got[0].Type != "sweep" || got[0].Dropped != 0 {
		t.Fatalf("filtered tail = %+v, want one loss-free sweep event", got)
	}
}

func TestCloseDrainsThenEOF(t *testing.T) {
	b := New()
	b.Publish("t", "x", 0)
	_, sub, _ := b.Subscribe("t", 4, 0)
	b.Publish("t", "x", 1)
	b.Close("t")
	b.Publish("t", "x", 2) // after close: dropped on the floor
	got := drain(sub)
	if len(got) != 1 || got[0].Data.(int) != 1 {
		t.Fatalf("post-close drain = %+v, want just event 1", got)
	}
	if !sub.Done() {
		t.Fatal("subscription not Done after close and drain")
	}
	// Late joiner on the closed topic: snapshot then immediate EOF.
	snap, late, ok := b.Subscribe("t", 4, 0)
	if !ok {
		t.Fatal("closed topic must still serve snapshots")
	}
	defer late.Cancel()
	if len(snap) != 2 {
		t.Fatalf("late snapshot on closed topic = %d events, want 2", len(snap))
	}
	if !late.Done() {
		t.Fatal("late subscription on closed topic not Done")
	}
}

func TestDropWakesSubscribersIntoEOF(t *testing.T) {
	b := New()
	b.Publish("t", "x", 0)
	_, sub, _ := b.Subscribe("t", 4, 0)
	b.Drop("t")
	select {
	case <-sub.Ready():
	case <-time.After(time.Second):
		t.Fatal("Drop did not wake the subscriber")
	}
	if got := drain(sub); len(got) != 0 {
		t.Fatalf("ring survived Drop with %d events... want drained-to-empty ring to EOF", len(got))
	}
	if !sub.Done() {
		t.Fatal("subscription not Done after Drop")
	}
	if _, _, ok := b.Subscribe("t", 4, 0); ok {
		t.Fatal("dropped topic still subscribable")
	}
	sub.Cancel() // must be a safe no-op after Drop
	if st := b.Stats(); st.Subscribers != 0 {
		t.Errorf("subscribers = %d after drop+cancel, want 0", st.Subscribers)
	}
}

func TestCancelDetaches(t *testing.T) {
	b := New()
	b.Publish("t", "x", 0)
	_, sub, _ := b.Subscribe("t", 4, 0)
	if n := b.Subscribers("t"); n != 1 {
		t.Fatalf("subscribers = %d, want 1", n)
	}
	sub.Cancel()
	sub.Cancel() // idempotent
	if n := b.Subscribers("t"); n != 0 {
		t.Fatalf("subscribers after cancel = %d, want 0", n)
	}
	b.Publish("t", "x", 1)
	if got := drain(sub); len(got) != 0 {
		t.Fatalf("cancelled subscription received %d events", len(got))
	}
}

func TestReadySignalCoalesces(t *testing.T) {
	b := New()
	b.Topic("t", 4)
	_, sub, _ := b.Subscribe("t", 8, 0)
	defer sub.Cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-sub.Ready()
		for len(drain(sub)) < 3 {
			<-sub.Ready()
		}
	}()
	for i := 0; i < 3; i++ {
		b.Publish("t", "x", i)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("consumer never saw all three events")
	}
}

// TestChurnUnderFirehose is the race-detector stress: hot publishers on
// several topics while subscribers attach, read (some slowly), resubscribe
// with resume, and detach, with topic close/drop mixed in. Correctness
// asserted: every delivered (seq, dropped) stream per subscriber is
// gap-consistent — seq strictly increases and the dropped counter accounts
// for at least the frames missing between consecutive deliveries being
// plausible (<= gap).
func TestChurnUnderFirehose(t *testing.T) {
	b := New()
	topics := []string{"run/a", "run/b", "sweep/c"}
	for _, tp := range topics {
		b.Topic(tp, 128)
	}
	stop := make(chan struct{})
	var pubWG sync.WaitGroup
	for _, tp := range topics {
		for w := 0; w < 3; w++ {
			pubWG.Add(1)
			go func(tp string) {
				defer pubWG.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if i%7 == 0 {
						b.PublishEphemeral(tp, "round", i)
					} else {
						b.Publish(tp, "round", i)
					}
					if i%64 == 0 {
						runtime.Gosched() // keep the mutex contended, not starved
					}
				}
			}(tp)
		}
	}

	var subWG sync.WaitGroup
	for c := 0; c < 8; c++ {
		subWG.Add(1)
		go func(c int) {
			defer subWG.Done()
			for iter := 0; iter < 10; iter++ {
				tp := topics[(c+iter)%len(topics)]
				snap, sub, ok := b.Subscribe(tp, 16, uint64(iter)*3)
				if !ok {
					continue
				}
				last := uint64(0)
				check := func(ev Event) {
					if ev.Seq <= last {
						t.Errorf("topic %s: seq went %d -> %d", tp, last, ev.Seq)
					}
					last = ev.Seq
				}
				for _, ev := range snap {
					check(ev)
				}
				reads := 0
				for reads < 48 {
					ev, ok := sub.Next()
					if !ok {
						if sub.Done() {
							break
						}
						select {
						case <-sub.Ready():
						case <-time.After(10 * time.Millisecond):
						}
						continue
					}
					check(ev)
					reads++
					if c%3 == 0 && reads%24 == 0 {
						time.Sleep(time.Millisecond) // slow reader: forces overflow
					}
				}
				sub.Cancel()
			}
		}(c)
	}
	subWG.Wait()
	close(stop)
	pubWG.Wait()

	st := b.Stats()
	if st.Subscribers != 0 {
		t.Errorf("subscribers leaked: %d", st.Subscribers)
	}
	if st.Published == 0 {
		t.Error("stress published nothing")
	}

	// Churn against close/drop on a dedicated topic.
	for i := 0; i < 50; i++ {
		name := fmt.Sprintf("churn/%d", i)
		b.Topic(name, 8)
		var wg sync.WaitGroup
		for s := 0; s < 4; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, sub, ok := b.Subscribe(name, 4, 0)
				if !ok {
					return
				}
				for !sub.Done() {
					if _, ok := sub.Next(); !ok {
						select {
						case <-sub.Ready():
						case <-time.After(5 * time.Millisecond):
						}
					}
				}
				sub.Cancel()
			}()
		}
		for j := 0; j < 32; j++ {
			b.Publish(name, "x", j)
		}
		if i%2 == 0 {
			b.Close(name)
			b.Drop(name)
		} else {
			b.Drop(name)
		}
		wg.Wait()
	}
	if st := b.Stats(); st.Subscribers != 0 {
		t.Errorf("subscribers leaked after close/drop churn: %d", st.Subscribers)
	}
}

func TestDecimatorBudget(t *testing.T) {
	cases := []struct {
		roundBudget, trials, frames int
		wantStride                  int
	}{
		{1 << 20, 1, 256, 4096},
		{256, 1, 256, 1},
		{100, 1, 256, 1},
		{1000, 4, 256, 16},
		{1 << 20, 4096, 256, 16777216}, // stride > budget: only round 0 per trial
		{0, 0, 0, 1},
	}
	for _, c := range cases {
		d := NewDecimator(c.roundBudget, c.trials, c.frames)
		if d.Stride() != c.wantStride {
			t.Errorf("NewDecimator(%d, %d, %d).Stride() = %d, want %d",
				c.roundBudget, c.trials, c.frames, d.Stride(), c.wantStride)
		}
		if !d.Keep(0) {
			t.Errorf("round 0 must always be kept (stride %d)", d.Stride())
		}
	}

	// A full-budget run stays within the frame budget per trial.
	d := NewDecimator(1<<20, 1, 256)
	kept := 0
	for r := 0; r < 1<<20; r++ {
		if d.Keep(r) {
			kept++
		}
	}
	if kept > 256 {
		t.Errorf("decimated 2^20-round run emitted %d frames, budget 256", kept)
	}
	if kept < 128 {
		t.Errorf("decimated run emitted only %d frames — stride overshoots the budget", kept)
	}
}

// New returns an empty bus instrumented against a private registry (the
// counters still drive Stats; they are just not exported anywhere).
func New() *Bus {
	return NewInstrumented(NewMetrics(metrics.NewRegistry()))
}

// Stride exposes the resolved stride (for tests and progress banners).
func (d *Decimator) Stride() int { return d.stride }
