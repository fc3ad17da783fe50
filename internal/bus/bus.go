// Package bus is a bounded-backpressure pub/sub event bus: the streaming
// telemetry layer between the simulation executor and its watchers.
//
// Topics are named streams ("run/run-000001", "sweep/sweep-000002",
// "metrics"); publishers append events, subscribers tail them. The design
// centre is the production traffic shape "one simulation, N watchers":
//
//   - A publisher NEVER blocks. Each subscriber owns a fixed-size ring
//     buffer; when a slow or wedged subscriber falls behind, the oldest
//     undelivered event is dropped and the next event the subscriber does
//     receive carries the count of what it missed (Event.Dropped). The
//     simulation's wall time is therefore independent of how many watchers
//     are attached and how slowly they read.
//
//   - Subscribe is snapshot-then-tail: each topic retains a bounded prefix
//     of its history (the serve layer bounds run trajectories by
//     decimation, so "bounded" is also "complete" there), and Subscribe
//     atomically returns the retained events newer than the caller's
//     resume point together with a live tail — a late joiner sees current
//     state, then the firehose, with no gap and no duplicates.
//
//   - Topics are closed when their stream is semantically finished (the
//     run reached a terminal state); subscribers drain what remains and
//     then see EOF. A closed topic still serves snapshots to late joiners
//     until it is dropped by its owner's retention policy.
//
// All methods are safe for concurrent use; the stress tests exercise
// subscriber churn against hot publishers under the race detector.
package bus

import (
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Event is one frame on a topic.
type Event struct {
	// Seq is the topic-local sequence number, assigned at publish,
	// starting at 1. Gaps in delivered Seq values are exactly the frames
	// the subscriber lost to overflow (also counted in Dropped) plus any
	// frames published as ephemeral (never retained, so absent from
	// snapshots too).
	Seq uint64 `json:"seq"`
	// Type names the frame ("state", "round", "cell", "sweep", "metrics",
	// "heartbeat"); the payload shape is per type and owned by the
	// publisher.
	Type string `json:"type"`
	// Dropped counts frames this subscriber lost to ring overflow since
	// the previous frame it received. Zero on loss-free delivery; never
	// set on snapshot events.
	Dropped uint64 `json:"dropped,omitempty"`
	// Data is the frame payload, marshalled as-is on the wire.
	Data any `json:"data,omitempty"`
}

// topic is one named stream.
type topic struct {
	seq       uint64
	retained  []Event // bounded prefix replayed to late joiners
	retainCap int
	subs      map[*Subscription]struct{}
	closed    bool
	// pubC and dropC are the topic-class counter children, resolved once
	// at topic creation so the publish hot path does no label lookups.
	pubC, dropC *metrics.Counter
}

// Bus is the set of topics plus bus-wide counters.
type Bus struct {
	mu     sync.Mutex
	topics map[string]*topic
	mx     *Metrics

	subs int
}

// DefaultRetain is the retained-history cap for topics created implicitly
// by Publish rather than explicitly by Topic.
const DefaultRetain = 256

// Metrics is the bus's instrument bundle. Published and dropped frames
// are counted per topic class — the prefix before the first "/" in the
// topic name ("run", "sweep", "metrics") — so a fleet of run topics is
// one wire series, not thousands.
type Metrics struct {
	// PublishSeconds is the full cost of one publish: lock, retention,
	// fan-out to every subscriber ring.
	PublishSeconds *metrics.Histogram
	// Published and Dropped count frames per topic class; Dropped counts
	// one per subscriber per lost frame, exactly like Stats.Dropped.
	Published *metrics.CounterVec
	Dropped   *metrics.CounterVec
}

// NewMetrics registers the bus instruments on reg.
func NewMetrics(reg *metrics.Registry) *Metrics {
	return &Metrics{
		PublishSeconds: reg.Histogram("bo3_bus_publish_seconds", "Event-bus publish latency (retention plus fan-out to all subscriber rings).", metrics.FastBuckets),
		Published:      reg.CounterVec("bo3_bus_published_total", "Events accepted onto the bus, by topic class.", "topic"),
		Dropped:        reg.CounterVec("bo3_bus_dropped_total", "Frames lost to subscriber-ring overflow, by topic class (one per subscriber per lost frame).", "topic"),
	}
}

// topicClass folds a topic name to its metrics label: the prefix before
// the first "/" ("run/run-000001" -> "run"), or the whole name.
func topicClass(name string) string {
	if i := strings.IndexByte(name, '/'); i >= 0 {
		return name[:i]
	}
	return name
}

// NewInstrumented returns an empty bus counting into m's instruments.
func NewInstrumented(m *Metrics) *Bus {
	return &Bus{topics: make(map[string]*topic), mx: m}
}

// Stats is a snapshot of the bus-wide counters.
type Stats struct {
	// Published counts events accepted by Publish/PublishEphemeral over
	// the bus's lifetime; Dropped counts subscriber-ring overflows (one
	// per subscriber per lost event — a frame missed by three slow
	// watchers counts three).
	Published, Dropped uint64
	// Subscribers is the number of currently attached subscriptions.
	Subscribers int
}

// Stats returns the current counters, read back from the metrics
// instruments (one source of truth for /v1/stats and /metrics).
func (b *Bus) Stats() Stats {
	b.mu.Lock()
	subs := b.subs
	b.mu.Unlock()
	var published, dropped uint64
	for _, v := range b.mx.Published.Values() {
		published += uint64(v)
	}
	for _, v := range b.mx.Dropped.Values() {
		dropped += uint64(v)
	}
	return Stats{Published: published, Dropped: dropped, Subscribers: subs}
}

// Topic ensures the named topic exists with the given retained-history
// cap (events beyond it are forgotten oldest-first, exactly like a slow
// subscriber's ring). Calling Topic on an existing topic only raises the
// cap, never lowers it mid-stream.
func (b *Bus) Topic(name string, retainCap int) {
	if retainCap <= 0 {
		retainCap = DefaultRetain
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.topicLocked(name, retainCap)
	if t.retainCap < retainCap {
		t.retainCap = retainCap
	}
}

// topicLocked returns the named topic, creating it if needed; callers
// hold b.mu.
func (b *Bus) topicLocked(name string, retainCap int) *topic {
	t, ok := b.topics[name]
	if !ok {
		cls := topicClass(name)
		t = &topic{
			retainCap: retainCap,
			subs:      make(map[*Subscription]struct{}),
			pubC:      b.mx.Published.With(cls),
			dropC:     b.mx.Dropped.With(cls),
		}
		b.topics[name] = t
	}
	return t
}

// Publish appends one event to the topic (created with DefaultRetain if
// unknown), retains it for late joiners, and fans it out to every
// subscriber. Publishing to a closed topic is a no-op: the stream has
// already delivered its terminal event.
func (b *Bus) Publish(name, typ string, data any) { b.publish(name, typ, data, true) }

// PublishEphemeral is Publish without retention: the event reaches only
// the subscribers attached right now and is absent from later snapshots.
// Used for frames that are dense and individually disposable (a sweep
// topic's per-round trajectory mirror), where replaying history must not
// crowd out the frames snapshots exist for.
func (b *Bus) PublishEphemeral(name, typ string, data any) { b.publish(name, typ, data, false) }

func (b *Bus) publish(name, typ string, data any, retain bool) {
	start := time.Now()
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.topicLocked(name, DefaultRetain)
	if t.closed {
		return
	}
	t.seq++
	ev := Event{Seq: t.seq, Type: typ, Data: data}
	t.pubC.Inc()
	if retain {
		if len(t.retained) >= t.retainCap {
			t.retained = append(t.retained[1:len(t.retained):len(t.retained)], ev)
		} else {
			t.retained = append(t.retained, ev)
		}
	}
	for s := range t.subs {
		if s.wants(typ) {
			s.pushLocked(ev, t.dropC)
		}
	}
	b.mx.PublishSeconds.ObserveSince(start)
}

// Close marks the topic terminal: attached subscribers drain their rings
// and then read EOF, and future publishes are dropped. The retained
// history stays available to late joiners (snapshot, then immediate EOF)
// until Drop. Closing an unknown or already-closed topic is a no-op.
func (b *Bus) Close(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t, ok := b.topics[name]
	if !ok || t.closed {
		return
	}
	t.closed = true
	for s := range t.subs {
		s.closed = true
		s.wakeLocked()
	}
}

// Drop removes the topic entirely — retained history included — waking
// any attached subscribers into EOF (after draining what their rings
// already hold). The owner calls it when the underlying entity is evicted.
func (b *Bus) Drop(name string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t, ok := b.topics[name]
	if !ok {
		return
	}
	delete(b.topics, name)
	for s := range t.subs {
		s.closed = true
		s.detached = true
		s.wakeLocked()
		b.subs--
	}
	t.subs = nil
}

// Subscribers reports how many subscriptions are attached to the topic.
func (b *Bus) Subscribers(name string) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	t, ok := b.topics[name]
	if !ok {
		return 0
	}
	return len(t.subs)
}

// Subscribe attaches to the topic and returns the retained events with
// Seq > afterSeq (the snapshot: pass 0 for everything, or a Last-Event-ID
// to resume) plus a live subscription whose ring holds at most buf events
// (<= 0 selects DefaultRetain). Snapshot and attach are atomic: an event
// published concurrently lands in exactly one of the two. ok is false for
// an unknown topic — the bus never invents streams for watchers, only for
// publishers.
//
// A non-empty types list restricts the subscription (snapshot and tail)
// to those event types; other frames neither occupy the ring nor count as
// drops. A consumer that must be lossless for a sparse event class on a
// topic that also carries a dense one (the sweep-results adapter, which
// needs every "cell" but no "round") filters here and sizes buf to the
// sparse class's worst case.
func (b *Bus) Subscribe(name string, buf int, afterSeq uint64, types ...string) (snapshot []Event, s *Subscription, ok bool) {
	if buf <= 0 {
		buf = DefaultRetain
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	t, exists := b.topics[name]
	if !exists {
		return nil, nil, false
	}
	s = &Subscription{
		bus:    b,
		topic:  t,
		name:   name,
		ring:   make([]Event, buf),
		ready:  make(chan struct{}, 1),
		closed: t.closed,
	}
	if len(types) > 0 {
		s.types = make(map[string]struct{}, len(types))
		for _, typ := range types {
			s.types[typ] = struct{}{}
		}
	}
	for _, ev := range t.retained {
		if ev.Seq > afterSeq && s.wants(ev.Type) {
			snapshot = append(snapshot, ev)
		}
	}
	t.subs[s] = struct{}{}
	b.subs++
	return snapshot, s, true
}

// Subscription is one subscriber's bounded view of a topic. Methods are
// safe for concurrent use, though a subscription normally has a single
// consumer goroutine.
type Subscription struct {
	bus   *Bus
	topic *topic
	name  string

	// Ring buffer of undelivered events; start indexes the oldest, n
	// counts the occupied slots. Guarded by bus.mu.
	ring     []Event
	start, n int
	// types, when non-nil, restricts delivery to those event types.
	types map[string]struct{}
	// dropped counts ring overflows since the last delivered event; the
	// next Next() stamps it onto the event and resets it.
	dropped uint64
	// closed: the topic reached EOF (Close or Drop); the ring is still
	// drained first. detached: Cancel or Drop already removed this
	// subscription from the topic.
	closed   bool
	detached bool

	ready chan struct{}
}

// wants reports whether the subscription's type filter admits typ; reads
// only immutable state, so it needs no lock.
func (s *Subscription) wants(typ string) bool {
	if s.types == nil {
		return true
	}
	_, ok := s.types[typ]
	return ok
}

// pushLocked appends one event to the ring, dropping the oldest on
// overflow; callers hold bus.mu.
func (s *Subscription) pushLocked(ev Event, dropC *metrics.Counter) {
	if s.n == len(s.ring) {
		s.start = (s.start + 1) % len(s.ring)
		s.n--
		s.dropped++
		dropC.Inc()
	}
	s.ring[(s.start+s.n)%len(s.ring)] = ev
	s.n++
	s.wakeLocked()
}

// wakeLocked signals Ready without blocking; callers hold bus.mu.
func (s *Subscription) wakeLocked() {
	select {
	case s.ready <- struct{}{}:
	default:
	}
}

// Ready returns a channel that receives a token whenever the subscription
// may have progressed (an event arrived, or the topic closed). The
// consumer loop is: drain Next until it returns ok=false, check Done,
// then wait on Ready (racing it against the client's context and the
// heartbeat timer).
func (s *Subscription) Ready() <-chan struct{} { return s.ready }

// Next pops the oldest undelivered event. ok is false when the ring is
// empty — which means "wait on Ready" unless Done also reports true. A
// returned event carries in Dropped the number of frames lost to overflow
// since the previous delivery.
func (s *Subscription) Next() (ev Event, ok bool) {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	if s.n == 0 {
		return Event{}, false
	}
	ev = s.ring[s.start]
	s.ring[s.start] = Event{} // release the payload reference
	s.start = (s.start + 1) % len(s.ring)
	s.n--
	ev.Dropped = s.dropped
	s.dropped = 0
	return ev, true
}

// Done reports EOF: the topic is closed or dropped AND the ring is fully
// drained. Events still buffered are always deliverable first.
func (s *Subscription) Done() bool {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	return s.closed && s.n == 0
}

// Cancel detaches the subscription from its topic. Idempotent; safe after
// Drop. The ring's remaining events stay readable, but nothing new
// arrives.
func (s *Subscription) Cancel() {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	if s.detached {
		return
	}
	s.detached = true
	s.closed = true
	delete(s.topic.subs, s)
	s.bus.subs--
}
