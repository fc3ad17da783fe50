package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/bus"
	"repro/internal/core"
)

// This file is the serve layer's face of the event bus (internal/bus):
// topic naming, the event payload shapes, the publishing hooks the job and
// sweep lifecycles call, and the SSE/NDJSON streaming handlers behind
// GET /v1/runs/{id}/events, /v1/sweeps/{id}/events, and /v1/events.

// Event type vocabulary. Every frame on the wire is a bus.Event whose Type
// is one of these; Data's shape is fixed per type.
const (
	// EventState marks a lifecycle transition: a run's Data is a
	// RunStateEvent; a sweep's is a SweepView summary (cells omitted).
	EventState = "state"
	// EventRound is a decimated trajectory frame (RoundFrame).
	EventRound = "round"
	// EventCell is a sweep cell reaching a terminal state (SweepCellView).
	EventCell = "cell"
	// EventSweep is a sweep's terminal summary (SweepView, cells omitted) —
	// always the last event on a sweep topic.
	EventSweep = "sweep"
	// EventMetrics is a server-wide counter frame (Stats) on MetricsTopic.
	EventMetrics = "metrics"
	// EventHeartbeat is the NDJSON idle keep-alive line; SSE streams use a
	// comment line instead, so the type never appears there.
	EventHeartbeat = "heartbeat"
)

// MetricsTopic is the server-wide metrics stream behind GET /v1/events.
const MetricsTopic = "metrics"

// metricsRetain bounds the metrics topic's snapshot: each frame is a full
// Stats payload and only the freshest matters, so late joiners replay a
// handful, not DefaultRetain of them.
const metricsRetain = 4

func runTopic(id string) string   { return "run/" + id }
func sweepTopic(id string) string { return "sweep/" + id }

// RunStateEvent is the payload of a run topic's EventState frames.
type RunStateEvent struct {
	Job   string `json:"job"`
	State string `json:"state"`
	// Sweep is the owning sweep ID for sweep-expanded runs.
	Sweep string `json:"sweep,omitempty"`
	// Error is set on failed terminal transitions.
	Error string `json:"error,omitempty"`
	// Result summarises a done run: the RunResult with the per-trial
	// Reports slice dropped, so a terminal frame stays O(1) regardless of
	// the trial count (the full breakdown remains on GET /v1/runs/{id}).
	Result *RunResult `json:"result,omitempty"`
}

// RoundFrame is the payload of EventRound frames: one decimated point of a
// trial's blue-count trajectory.
type RoundFrame struct {
	// Job names the run; set only on sweep-topic mirrors, where frames
	// from concurrent cells interleave.
	Job string `json:"job,omitempty"`
	// Trial and Round locate the point; Blues is the blue count after that
	// round, out of N vertices.
	Trial int `json:"trial"`
	Round int `json:"round"`
	Blues int `json:"blues"`
	N     int `json:"n"`
	// Variant is the run's opinion dynamic; omitted for the synchronous
	// default, so pre-variant watchers see unchanged frames.
	Variant string `json:"variant,omitempty"`
}

// publishJobState publishes a run lifecycle transition; callers hold m.mu.
// Terminal states attach the result summary and close the topic — watchers
// drain and see EOF, and late joiners still get the retained history until
// retention prunes the job.
func (m *Manager) publishJobState(j *job) {
	ev := RunStateEvent{Job: j.id, State: j.state, Sweep: j.sweepID()}
	if j.err != nil {
		ev.Error = j.err.Error()
	}
	terminal := j.state == StateDone || j.state == StateFailed || j.state == StateCancelled
	if terminal && j.result != nil {
		summary := *j.result
		summary.Reports = nil
		ev.Result = &summary
	}
	m.bus.Publish(runTopic(j.id), EventState, &ev)
	if terminal {
		m.bus.Close(runTopic(j.id))
	}
}

// trajectoryObserver builds the per-round observer a worker installs for
// one job: it publishes round-decimated RoundFrames to the run's topic
// (retained, so late joiners replay the trajectory so far) and mirrors
// them ephemerally to the owning sweep's topic. The stride is fixed up
// front from the exact round budget core.Run will enforce, which keeps
// Keep pure — trial goroutines share it without synchronisation — and the
// kept set independent of watchers, so a watched run stays byte-identical
// to an unwatched one.
func (m *Manager) trajectoryObserver(j *job, g core.Topology, runSpec RunRequest) repro.RoundObserver {
	budget := core.RoundBudget(g, runSpec.Delta, runSpec.MaxRounds)
	dec := bus.NewDecimator(budget, runSpec.Trials, m.cfg.FrameBudget)
	n := g.N()
	variant := ""
	if v := runSpec.VariantName(); v != "sync" {
		variant = v
	}
	topic := runTopic(j.id)
	sweepTp := ""
	if j.owner != nil {
		sweepTp = sweepTopic(j.owner.id)
	}
	return func(trial, round, blues int) {
		if !dec.Keep(round) {
			return
		}
		f := RoundFrame{Trial: trial, Round: round, Blues: blues, N: n, Variant: variant}
		m.bus.Publish(topic, EventRound, &f)
		if sweepTp != "" {
			mirror := f
			mirror.Job = j.id
			m.bus.PublishEphemeral(sweepTp, EventRound, &mirror)
		}
	}
}

// PublishMetrics publishes one Stats frame to the metrics topic. The
// /v1/events handler calls it on subscribe so every joiner starts with a
// fresh frame; metricsLoop keeps the stream live while anyone watches.
func (m *Manager) PublishMetrics() {
	st := m.Stats()
	m.bus.Publish(MetricsTopic, EventMetrics, &st)
}

// metricsLoop publishes periodic metrics frames while the topic has
// subscribers; an unwatched server publishes nothing.
func (m *Manager) metricsLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.MetricsInterval)
	defer t.Stop()
	for {
		select {
		case <-m.metricsStop:
			return
		case <-t.C:
			if m.bus.Subscribers(MetricsTopic) > 0 {
				m.PublishMetrics()
			}
		}
	}
}

// SubscribeRun attaches to a run's event stream, resuming after afterSeq.
// ok is false for an unknown (or already pruned) run.
func (m *Manager) SubscribeRun(id string, afterSeq uint64) ([]bus.Event, *bus.Subscription, bool) {
	return m.bus.Subscribe(runTopic(id), m.cfg.EventBuffer, afterSeq)
}

// SubscribeSweepEvents attaches to a sweep's full event stream (state,
// cell, round mirrors, terminal summary), resuming after afterSeq.
func (m *Manager) SubscribeSweepEvents(id string, afterSeq uint64) ([]bus.Event, *bus.Subscription, bool) {
	return m.bus.Subscribe(sweepTopic(id), m.cfg.EventBuffer, afterSeq)
}

// SubscribeMetrics attaches to the server-wide metrics stream, publishing
// a fresh frame first so the snapshot is never stale.
func (m *Manager) SubscribeMetrics(afterSeq uint64) ([]bus.Event, *bus.Subscription, bool) {
	m.PublishMetrics()
	return m.bus.Subscribe(MetricsTopic, m.cfg.EventBuffer, afterSeq)
}

// SubscribeSweepResults is the lossless adapter behind the PR 2 NDJSON
// results stream: a type-filtered subscription delivering every EventCell
// and the terminal EventSweep, with the ring sized to the sweep's cell
// count so a reader that keeps up with the network loses nothing — the
// dense EventRound mirrors are filtered out before they can crowd the
// ring. Subscribing through the manager (not the bus directly) sizes the
// buffer under m.mu, atomically with the existence check.
func (m *Manager) SubscribeSweepResults(id string) ([]bus.Event, *bus.Subscription, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sweeps[id]
	if !ok {
		return nil, nil, false
	}
	return m.bus.Subscribe(sweepTopic(id), len(s.cells)+16, 0, EventCell, EventSweep)
}

// eventCursor extracts the resume point of a stream request: the SSE
// Last-Event-ID header, or the ?after= query parameter (for NDJSON
// clients, which have no header convention). Zero means "from the start
// of the retained snapshot".
func eventCursor(r *http.Request) uint64 {
	raw := r.Header.Get("Last-Event-ID")
	if raw == "" {
		raw = r.URL.Query().Get("after")
	}
	if raw == "" {
		return 0
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0
	}
	return v
}

// wantsSSE reports whether the client negotiated Server-Sent Events;
// anything else gets NDJSON, which `curl -N | jq` consumes directly.
func wantsSSE(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

func (s *Server) handleRunEvents(w http.ResponseWriter, r *http.Request) {
	snap, sub, ok := s.mgr.SubscribeRun(r.PathValue("id"), eventCursor(r))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("serve: no such run"))
		return
	}
	s.streamEvents(w, r, snap, sub, eventLines(r))
}

func (s *Server) handleSweepEvents(w http.ResponseWriter, r *http.Request) {
	snap, sub, ok := s.mgr.SubscribeSweepEvents(r.PathValue("id"), eventCursor(r))
	if !ok {
		writeError(w, http.StatusNotFound, errors.New("serve: no such sweep"))
		return
	}
	s.streamEvents(w, r, snap, sub, eventLines(r))
}

func (s *Server) handleMetricsEvents(w http.ResponseWriter, r *http.Request) {
	snap, sub, ok := s.mgr.SubscribeMetrics(eventCursor(r))
	if !ok {
		// The metrics topic exists from manager start; this is unreachable
		// short of shutdown races.
		writeError(w, http.StatusNotFound, errors.New("serve: metrics stream unavailable"))
		return
	}
	s.streamEvents(w, r, snap, sub, eventLines(r))
}

// lineFormat is one stream route's wire encoding. write renders one bus
// event (possibly as nothing) and reports whether it was the stream's last
// line; heartbeat, when set, is written after each idle Heartbeat
// interval.
type lineFormat struct {
	contentType string
	write       func(w io.Writer, ev bus.Event) (last bool, err error)
	heartbeat   func(w io.Writer) error
}

// eventLines is the /events encoding: SSE frames when the client
// negotiated text/event-stream, one bus.Event per NDJSON line otherwise,
// with idle heartbeats either way.
func eventLines(r *http.Request) lineFormat {
	if wantsSSE(r) {
		return lineFormat{
			contentType: "text/event-stream",
			write: func(w io.Writer, ev bus.Event) (bool, error) {
				body, err := json.Marshal(ev)
				if err == nil {
					_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, body)
				}
				return false, err
			},
			heartbeat: func(w io.Writer) error {
				_, err := fmt.Fprint(w, ": heartbeat\n\n")
				return err
			},
		}
	}
	return lineFormat{
		contentType: "application/x-ndjson",
		write: func(w io.Writer, ev bus.Event) (bool, error) {
			return false, json.NewEncoder(w).Encode(ev)
		},
		heartbeat: func(w io.Writer) error {
			_, err := fmt.Fprintf(w, "{\"type\":%q}\n", EventHeartbeat)
			return err
		},
	}
}

// sweepResultLines is the GET /v1/sweeps/{id}/results encoding: one
// SweepEvent per NDJSON line, no heartbeats, and the sweep summary as the
// last line.
var sweepResultLines = lineFormat{
	contentType: "application/x-ndjson",
	write: func(w io.Writer, ev bus.Event) (bool, error) {
		var line SweepEvent
		switch data := ev.Data.(type) {
		case *SweepCellView:
			line.Cell = data
		case *SweepView:
			line.Sweep = data
		default:
			return false, nil
		}
		return line.Sweep != nil, json.NewEncoder(w).Encode(line)
	},
}

// streamEvents writes the snapshot, then tails the subscription until the
// topic closes (clean EOF), the format reports its last line, the client
// disconnects, or a write fails. The consumer loop never blocks the bus: a
// stalled client wedges here, in its own handler goroutine, while the ring
// drops oldest-first and the next delivered frame carries the count.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, snapshot []bus.Event, sub *bus.Subscription, lines lineFormat) {
	defer sub.Cancel()
	w.Header().Set("Content-Type", lines.contentType)
	if lines.contentType == "text/event-stream" {
		w.Header().Set("Cache-Control", "no-cache")
	}
	w.WriteHeader(http.StatusOK)
	flusher, canFlush := w.(http.Flusher)
	flush := func() {
		if canFlush {
			flusher.Flush()
		}
	}
	for _, ev := range snapshot {
		if last, err := lines.write(w, ev); last || err != nil {
			return
		}
	}
	for {
		for ev, ok := sub.Next(); ok; ev, ok = sub.Next() {
			if last, err := lines.write(w, ev); last || err != nil {
				return
			}
		}
		flush()
		if sub.Done() {
			return
		}
		// A nil channel never fires: a format without heartbeats only
		// wakes for events or disconnects.
		var idle <-chan time.Time
		if lines.heartbeat != nil {
			idle = time.After(s.mgr.cfg.Heartbeat)
		}
		select {
		case <-sub.Ready():
		case <-idle:
			if lines.heartbeat(w) != nil {
				return
			}
			flush()
		case <-r.Context().Done():
			return
		}
	}
}
