package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval: a call the benchmark made into a layer, or a
// job's server-stamped lifetime. Spans of one job or sweep cell share a
// Trace ID; Parent is the ID of the span that caused this one (0 = root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Trace  string `json:"trace,omitempty"`
	Name   string `json:"name"`
	// Start and End are offsets from the tracer's epoch.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A tracer that is off
// records nothing, so the untraced runs pay one branch per call site.
type tracer struct {
	on    bool
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(on bool) *tracer { return &tracer{on: on, epoch: time.Now()} }

// add records a finished span from two timestamps and returns its ID.
func (t *tracer) add(name, trace string, parent int, start, end time.Time) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Trace: trace, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return id
}

// time runs fn inside a span and returns fn's error.
func (t *tracer) time(name, trace string, parent int, fn func() error) error {
	start := time.Now()
	err := fn()
	t.add(name, trace, parent, start, time.Now())
	return err
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeJSONL writes the spans one JSON object per line.
func writeJSONL(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	clipped := make([][2]time.Duration, 0, len(iv))
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b > a {
			clipped = append(clipped, [2]time.Duration{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, x := range clipped {
		if open && x[0] <= curB {
			curB = max(curB, x[1])
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = x[0], x[1], true
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children that overlap each
// other are counted once, so a parent waiting on two concurrent children
// has self time only where neither runs.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][][2]time.Duration{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]time.Duration{s.Start, s.End})
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(children[s.ID], s.Start, s.End)
	}
	return out
}

// selfByName sums self times per span name, in seconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += self[s.ID].Seconds()
	}
	return out
}

// closureGap is the share of an end-to-end total that the layer parts do
// not account for: (total − Σ parts) / total. Positive means time no layer
// claims; negative means the layers claim more than the total.
func closureGap(total float64, parts ...float64) float64 {
	sum := 0.0
	for _, p := range parts {
		sum += p
	}
	return ratio(total-sum, total)
}
