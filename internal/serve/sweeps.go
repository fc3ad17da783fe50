package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/store"
)

// SweepRequest is the body of POST /v1/sweeps: expand Grid (a spec.Grid;
// the experiment suite enumerates the very same type) into child runs and
// execute them on the job pool under one sweep ID.
type SweepRequest struct {
	Grid SweepGrid `json:"grid"`
	// MaxRounds caps every cell's runs; 0 uses the theory-derived default.
	MaxRounds int `json:"max_rounds,omitempty"`
	// Seed is the sweep seed; cell i runs with rng.ChildSeed(Seed, i). A
	// zero seed is replaced by one derived from the server's root seed and
	// the sweep index, recorded in the SweepView, so every sweep is
	// reproducible after the fact.
	Seed uint64 `json:"seed,omitempty"`
	// MaxCells optionally lowers the server's grid-size cap for this
	// request, failing fast on accidental blow-ups.
	MaxCells int `json:"max_cells,omitempty"`
	// Concurrency caps this sweep's in-flight child runs; 0 uses the
	// server default, and values above the server default are clamped.
	Concurrency int `json:"concurrency,omitempty"`
}

// CellResult is the compact per-cell outcome embedded in sweep views; the
// full per-trial breakdown stays on the child run (GET /v1/runs/{job_id}).
type CellResult struct {
	Trials          int     `json:"trials"`
	RedWins         int     `json:"red_wins"`
	Consensus       int     `json:"consensus"`
	MeanRounds      float64 `json:"mean_rounds"`
	MaxRounds       int     `json:"max_rounds"`
	PredictedRounds int     `json:"predicted_rounds"`
	// Variant is the cell's opinion dynamic; omitted for the synchronous
	// default, so pre-variant sweep views keep their exact bytes.
	Variant   string `json:"variant,omitempty"`
	CacheHit  bool   `json:"cache_hit"`
	ElapsedMS int64  `json:"elapsed_ms"`
}

// SweepCellView is one expanded grid cell and its status.
type SweepCellView struct {
	// Index is the cell's position in expansion order (and its seed label:
	// the cell seed is ChildSeed(sweep seed, Index)).
	Index int `json:"index"`
	// JobID names the child run once scheduled.
	JobID string `json:"job_id,omitempty"`
	// State is "pending" until the cell is handed to the job pool, then
	// the child run's state.
	State   string      `json:"state"`
	Request RunRequest  `json:"request"`
	Error   string      `json:"error,omitempty"`
	Result  *CellResult `json:"result,omitempty"`
}

// SweepAggregate summarises a sweep's completed cells. Every field is a
// deterministic function of the cell results (no timings), so two sweeps
// with the same seed and grid produce byte-identical aggregates.
type SweepAggregate struct {
	// Cell counts by state; Pending includes queued and running cells.
	Cells     int `json:"cells"`
	Pending   int `json:"pending"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
	// Trial tallies over the done cells.
	Trials    int `json:"trials"`
	RedWins   int `json:"red_wins"`
	Consensus int `json:"consensus"`
	// Rates over the done trials, with 95% Wilson intervals.
	RedWinRate    float64 `json:"red_win_rate"`
	RedWinLo      float64 `json:"red_win_lo"`
	RedWinHi      float64 `json:"red_win_hi"`
	ConsensusRate float64 `json:"consensus_rate"`
	ConsensusLo   float64 `json:"consensus_lo"`
	ConsensusHi   float64 `json:"consensus_hi"`
	// MeanRounds and MaxRounds summarise rounds across all done trials.
	MeanRounds float64 `json:"mean_rounds"`
	MaxRounds  int     `json:"max_rounds"`
}

// SweepView is the externally visible snapshot of a sweep. The list
// endpoint omits Cells.
type SweepView struct {
	ID string `json:"id"`
	// State is "running" until every cell is terminal, then "done" or
	// "cancelled".
	State     string          `json:"state"`
	Request   SweepRequest    `json:"request"`
	Aggregate SweepAggregate  `json:"aggregate"`
	Cells     []SweepCellView `json:"cells,omitempty"`
	// CellsCached counts cells answered from the persistent result store
	// without executing — a resumed sweep's pre-crash cells, a repeated
	// grid's entire expansion, or cells a fleet peer computed first. It
	// lives outside Aggregate deliberately: the aggregate is a
	// deterministic function of the cell outcomes, identical however the
	// cells were obtained, while CellsCached describes scheduling.
	CellsCached int `json:"cells_cached"`
	// ContentKey is the sweep-level content address (the grid's canonical
	// key hashed with the effective seed and round cap); two sweeps with
	// equal keys compute identical aggregates. Present once the sweep has
	// an effective seed, i.e. always on responses.
	ContentKey string `json:"content_key,omitempty"`
	// ResumeRefused records why a journaled sweep could not be resumed
	// after a restart (a server restarted with tighter limits, say); such
	// sweeps surface as cancelled with zero cells.
	ResumeRefused string     `json:"resume_refused,omitempty"`
	Created       time.Time  `json:"created"`
	Finished      *time.Time `json:"finished,omitempty"`
}

// SweepEvent is one NDJSON line of GET /v1/sweeps/{id}/results: cell
// events as cells reach a terminal state, then a final sweep event with
// the aggregate once the sweep itself is terminal.
type SweepEvent struct {
	Cell  *SweepCellView `json:"cell,omitempty"`
	Sweep *SweepView     `json:"sweep,omitempty"`
}

// StateCellPending marks a sweep cell not yet handed to the job pool.
const StateCellPending = "pending"

// sweepSeedDomain separates the sweep seed-derivation tree from the plain
// job tree: sweep s gets ChildSeed(root, sweepSeedDomain, s) while job k
// gets ChildSeed(root, k), so the two never reuse a stream.
const sweepSeedDomain = 0x53574545 // "SWEE"

// sweepCell is the internal mutable record behind a SweepCellView.
type sweepCell struct {
	req    RunRequest
	jobID  string
	state  string
	err    string
	result *CellResult
	tally  sim.Tally // per-trial tally of a done cell, for aggregation
}

// sweep is the internal mutable record behind a SweepView.
type sweep struct {
	id       string
	req      SweepRequest
	cells    []sweepCell
	state    string
	created  time.Time
	finished time.Time
	// slots bounds the in-flight cells: runSweep takes a slot before it
	// schedules a cell, and the cell's terminal transition gives it back.
	slots chan struct{}

	// cellsCached counts cells answered from the result store; contentKey
	// is the sweep-level content address; resumeRefused records why a
	// journaled sweep could not be re-registered (see SweepView).
	cellsCached   int
	contentKey    string
	resumeRefused string

	ctx       context.Context
	cancel    context.CancelFunc
	cancelled bool // cancel requested or scheduling aborted (shutdown)
	// userCancelled distinguishes a client DELETE (a terminal decision,
	// journaled) from a shutdown interruption (which leaves the journal
	// record "running" so a restarted server resumes the sweep).
	userCancelled bool
	agg           *SweepAggregate // memoised at the terminal transition
}

// SubmitSweep validates and expands the grid, registers the sweep, and
// starts its scheduler. The returned view is in state "running" with every
// cell pending.
func (m *Manager) SubmitSweep(req SweepRequest) (SweepView, error) {
	view, err := m.submitSweep(req)
	if err != nil {
		m.mx.sweepsRejected.Inc()
	}
	return view, err
}

func (m *Manager) submitSweep(req SweepRequest) (SweepView, error) {
	reqs, err := m.expandSweep(&req)
	if err != nil {
		return SweepView{}, err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return SweepView{}, ErrClosed
	}
	if req.Seed == 0 {
		req.Seed = rng.ChildSeed(m.cfg.RootSeed, sweepSeedDomain, m.sweepSeq)
		for i := range reqs {
			reqs[i].Seed = rng.ChildSeed(req.Seed, uint64(i))
		}
	}
	id := m.mintSweepIDLocked()
	s := m.registerSweepLocked(id, req, reqs)
	entry := m.journalEntryLocked(s)
	view := m.sweepViewLocked(s, true)
	m.mu.Unlock()
	m.startSweep(s, entry)
	return view, nil
}

// expandSweep normalizes and caps the request, then expands and validates
// every cell. Run outside the lock: the grid is capped, but a few
// thousand validations still should not stall every snapshot reader.
// Cell seeds for seedless requests are assigned under the lock, where the
// sweep index that feeds the sweep seed is reserved.
func (m *Manager) expandSweep(req *SweepRequest) ([]RunRequest, error) {
	req.Grid.Normalize()
	if err := req.Grid.Validate(); err != nil {
		return nil, err
	}
	count, err := req.Grid.CellCount()
	if err != nil {
		return nil, err
	}
	limit := m.cfg.Limits.MaxSweepCells
	if req.MaxCells > 0 && req.MaxCells < limit {
		limit = req.MaxCells
	}
	if count > limit {
		return nil, fmt.Errorf("sweep: grid expands to %d cells, exceeding the cap of %d", count, limit)
	}
	if req.Concurrency <= 0 || req.Concurrency > m.cfg.SweepConcurrency {
		req.Concurrency = m.cfg.SweepConcurrency
	}
	reqs := req.Grid.Expand(req.Seed, req.MaxRounds)
	for i := range reqs {
		if err := validateRun(&reqs[i], m.cfg.Limits); err != nil {
			return nil, fmt.Errorf("sweep: cell %d: %w", i, err)
		}
	}
	return reqs, nil
}

// registerSweepLocked creates the sweep record under the given ID and
// reserves its scheduler slot; callers hold m.mu, have reserved the ID,
// and must call startSweep after releasing the lock. The WaitGroup add
// happens here, under the same lock as the closed check, so Close can
// never begin waiting between registration and scheduler start.
func (m *Manager) registerSweepLocked(id string, req SweepRequest, reqs []RunRequest) *sweep {
	ctx, cancel := context.WithCancel(m.baseCtx)
	s := &sweep{
		id:         id,
		req:        req,
		cells:      make([]sweepCell, len(reqs)),
		state:      StateRunning,
		created:    time.Now(),
		slots:      make(chan struct{}, req.Concurrency),
		contentKey: req.Grid.ContentKey(req.Seed, req.MaxRounds),
		ctx:        ctx,
		cancel:     cancel,
	}
	for i := range reqs {
		s.cells[i] = sweepCell{req: reqs[i], state: StateCellPending}
	}
	m.sweeps[s.id] = s
	m.sweepOrder = append(m.sweepOrder, s.id)
	m.pruneSweepsLocked()
	m.sweepWG.Add(1)
	// The retained prefix must replay every cell event to a late joiner —
	// the results adapter's losslessness rests on it — plus lifecycle
	// frames. The dense per-round mirrors are published ephemerally, so
	// they never count against this cap.
	m.bus.Topic(sweepTopic(s.id), len(reqs)+16)
	view := m.sweepViewLocked(s, false)
	m.bus.Publish(sweepTopic(s.id), EventState, &view)
	return s
}

// startSweep writes the sweep's "running" journal record and launches
// the scheduler; called without m.mu held. The record hits disk before
// any cell can be scheduled, so the journal never shows a result for a
// sweep it has not recorded.
func (m *Manager) startSweep(s *sweep, entry []byte) {
	m.writeJournal(s.id, entry)
	go m.runSweep(s)
}

// sweepJournal is the store's journal payload for one sweep: enough to
// re-expand and finish the sweep after a restart. The request always
// carries the effective seed, so a resumed expansion reproduces every
// cell (and its content key) exactly.
type sweepJournal struct {
	ID      string       `json:"id"`
	State   string       `json:"state"`
	Request SweepRequest `json:"request"`
	// Error records why a resume was refused, on the tombstone record a
	// refusal leaves behind.
	Error string `json:"error,omitempty"`
}

// mintSweepIDLocked returns the next sweep ID and advances the sequence;
// callers hold m.mu. With a fleet identity configured the ID carries the
// worker's namespace, so N workers minting against one shared journal
// never collide.
func (m *Manager) mintSweepIDLocked() string {
	id := fmt.Sprintf("sweep-%06d", m.sweepSeq)
	if m.cfg.WorkerID != "" {
		id = fmt.Sprintf("sweep-%s-%06d", m.cfg.WorkerID, m.sweepSeq)
	}
	m.sweepSeq++
	return id
}

// ValidateWorkerID accepts a fleet identity made only of letters, digits,
// '.', '_' and '-' (or empty: no fleet). The ID becomes part of every sweep
// ID, and so of the /v1/sweeps/{id} routes and the journal keys; a '%', '/'
// or space would make those unroutable.
func ValidateWorkerID(id string) error {
	for _, r := range id {
		if !('a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9' || strings.ContainsRune("._-", r)) {
			return fmt.Errorf("worker ID %q: character %q is outside [A-Za-z0-9._-]", id, r)
		}
	}
	return nil
}

// journalEntryLocked marshals the sweep's current lifecycle record;
// callers hold m.mu and hand the bytes to writeJournal after releasing
// it — store I/O stays off the manager lock, like persistResult's.
// Returns nil when there is nothing to write.
func (m *Manager) journalEntryLocked(s *sweep) []byte {
	if m.cfg.Store == nil {
		return nil
	}
	body, err := json.Marshal(sweepJournal{ID: s.id, State: s.state, Request: s.req})
	if err != nil {
		m.mx.storeErrors.Inc()
		return nil
	}
	return body
}

// writeJournal appends a record built by journalEntryLocked; called
// without m.mu held. Best-effort like result persistence: a failed
// journal write costs crash-resumability, not correctness.
func (m *Manager) writeJournal(id string, body []byte) {
	if body == nil {
		return
	}
	if err := m.cfg.Store.PutSweep(id, body); err != nil {
		m.mx.storeErrors.Inc()
	}
}

// sweepHWM is the journal's high-water-mark record: the collapsed residue
// of every terminal sweep record this worker has retired. NextSeq keeps
// new sweep IDs collision-free with forgotten history. The record lives
// under the worker-namespaced key "hwm" / "hwm-<id>", one per fleet
// member. Decoding must ignore unknown fields: records older servers
// wrote also carry "done_keys".
type sweepHWM struct {
	NextSeq uint64 `json:"next_seq"`
}

// hwmKey is this worker's high-water-mark record ID.
func (m *Manager) hwmKey() string {
	if m.cfg.WorkerID != "" {
		return "hwm-" + m.cfg.WorkerID
	}
	return "hwm"
}

// ResumeSweeps replays the store's sweep journal: every sweep whose
// latest record is still "running" — submitted before a crash or an
// unclean shutdown and never finalised — is re-registered under its
// original ID and re-executed. Cells whose results were persisted before
// the crash are answered from the store without executing, so a resumed
// sweep runs only the missing cells and converges to the same
// byte-identical aggregate as an uninterrupted run with that seed and
// grid. Terminal journal records are collapsed into the high-water-mark
// record — their ID advances the sequence, then the record itself is
// tombstoned — so restart scans stay O(active sweeps), not O(sweeps ever
// run). A record that refuses to resume (a server restarted with tighter
// limits, say) is registered as a cancelled sweep whose view carries the
// reason in resume_refused, and tombstoned in the journal so the failure
// does not replay on every start. Call once, after NewManager and before
// serving traffic; returns how many sweeps were resumed.
func (m *Manager) ResumeSweeps() (int, error) {
	if m.cfg.Store == nil {
		return 0, nil
	}
	infos, err := m.cfg.Store.Sweeps()
	if err != nil {
		return 0, err
	}
	resumed := 0
	var errs []error
	var collapse []string // terminal records to fold into the high-water mark
	for _, info := range infos {
		if strings.HasPrefix(info.ID, "hwm") {
			// Only our own record advances our sequence; a fleet peer's
			// mark is its own.
			if info.ID == m.hwmKey() {
				m.loadHWM(info.Body)
			}
			continue
		}
		owned := m.reserveSweepID(info.ID)
		var entry sweepJournal
		if err := json.Unmarshal(info.Body, &entry); err != nil {
			errs = append(errs, fmt.Errorf("sweep %s: corrupt journal record: %w", info.ID, err))
			collapse = append(collapse, info.ID)
			continue
		}
		if entry.State != StateRunning {
			if owned {
				collapse = append(collapse, info.ID)
			}
			continue
		}
		if err := m.resumeSweep(info.ID, entry.Request); err != nil {
			errs = append(errs, fmt.Errorf("sweep %s: %w", info.ID, err))
			// A refusal is terminal: without a tombstone, every future
			// restart would re-expand and re-fail the same record
			// forever. Shutdown and double-resume are transient, not
			// refusals. The refused sweep stays queryable in memory as
			// cancelled, with the reason on the wire.
			if !errors.Is(err, ErrClosed) && !errors.Is(err, errSweepRegistered) {
				m.registerRefusedSweep(info.ID, entry.Request, err)
				m.tombstoneSweep(info.ID, entry.Request, err)
			}
			continue
		}
		resumed++
	}
	// The high-water mark hits disk before the terminal records are
	// deleted: a crash between the two leaves both, and the next restart
	// re-collapses idempotently.
	m.writeHWM()
	for _, id := range collapse {
		if err := m.cfg.Store.DeleteSweep(id); err != nil {
			m.mx.storeErrors.Inc()
		}
	}
	return resumed, errors.Join(errs...)
}

// loadHWM advances the sweep sequence past this worker's high-water-mark
// record.
func (m *Manager) loadHWM(body json.RawMessage) {
	var hwm sweepHWM
	if json.Unmarshal(body, &hwm) != nil {
		m.mx.storeErrors.Inc()
		return
	}
	m.mu.Lock()
	m.sweepSeq = max(m.sweepSeq, hwm.NextSeq)
	m.mu.Unlock()
}

// writeHWM persists this worker's high-water-mark record. Best-effort
// like every store write.
func (m *Manager) writeHWM() {
	m.mu.Lock()
	hwm := sweepHWM{NextSeq: m.sweepSeq}
	m.mu.Unlock()
	body, err := json.Marshal(hwm)
	if err == nil {
		err = m.cfg.Store.PutSweep(m.hwmKey(), body)
	}
	if err != nil {
		m.mx.storeErrors.Inc()
	}
}

// registerRefusedSweep surfaces a journaled sweep that could not be
// resumed as a cancelled, cell-less sweep whose view records the reason
// — GET /v1/sweeps/{id} answers with resume_refused instead of a 404
// that silently swallows recorded history.
func (m *Manager) registerRefusedSweep(id string, req SweepRequest, cause error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.sweeps[id]; dup {
		return
	}
	now := time.Now()
	s := &sweep{
		id:            id,
		req:           req,
		state:         StateCancelled,
		created:       now,
		finished:      now,
		resumeRefused: cause.Error(),
		agg:           &SweepAggregate{},
	}
	m.sweeps[id] = s
	m.sweepOrder = append(m.sweepOrder, id)
	m.pruneSweepsLocked()
	// Born terminal: the topic's whole life is the refusal summary.
	view := m.sweepViewLocked(s, false)
	m.bus.Publish(sweepTopic(id), EventSweep, &view)
	m.bus.Close(sweepTopic(id))
}

// errSweepRegistered reports a resume of a sweep that is already live
// (ResumeSweeps called twice).
var errSweepRegistered = errors.New("already registered")

// tombstoneSweep journals a refused resume as cancelled, recording why,
// so the journal converges instead of replaying the failure on every
// start. Best-effort like every store write.
func (m *Manager) tombstoneSweep(id string, req SweepRequest, cause error) {
	body, err := json.Marshal(sweepJournal{ID: id, State: StateCancelled, Request: req, Error: cause.Error()})
	if err == nil {
		err = m.cfg.Store.PutSweep(id, body)
	}
	if err != nil {
		m.mx.storeErrors.Inc()
	}
}

// reserveSweepID advances the sweep sequence past a journaled ID so new
// sweeps never reuse stored history's names. Only IDs in this worker's
// namespace are parsed (a fleet peer's "sweep-other-000003" neither
// advances our sequence nor is ours to collapse); the return value
// reports ownership.
func (m *Manager) reserveSweepID(id string) (owned bool) {
	prefix := "sweep-"
	if m.cfg.WorkerID != "" {
		prefix += m.cfg.WorkerID + "-"
	}
	digits, ok := strings.CutPrefix(id, prefix)
	if !ok {
		return false
	}
	n, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return false
	}
	m.mu.Lock()
	if n >= m.sweepSeq {
		m.sweepSeq = n + 1
	}
	m.mu.Unlock()
	return true
}

// resumeSweep re-registers one journaled sweep under its original ID.
// The request is re-validated against the current limits: a server
// restarted with a tighter cap refuses the resume rather than running an
// inadmissible grid.
func (m *Manager) resumeSweep(id string, req SweepRequest) error {
	if req.Seed == 0 {
		return fmt.Errorf("journal record has no effective seed")
	}
	reqs, err := m.expandSweep(&req)
	if err != nil {
		return err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	if _, dup := m.sweeps[id]; dup {
		m.mu.Unlock()
		return errSweepRegistered
	}
	s := m.registerSweepLocked(id, req, reqs)
	entry := m.journalEntryLocked(s)
	m.mu.Unlock()
	m.startSweep(s, entry)
	return nil
}

// pruneSweepsLocked evicts the oldest finished sweeps beyond the retention
// cap; callers hold m.mu. Running sweeps are never evicted.
func (m *Manager) pruneSweepsLocked() {
	excess := len(m.sweepOrder) - m.cfg.Retention
	if excess <= 0 {
		return
	}
	kept := m.sweepOrder[:0]
	for _, id := range m.sweepOrder {
		s := m.sweeps[id]
		if excess > 0 && s.state != StateRunning {
			delete(m.sweeps, id)
			m.bus.Drop(sweepTopic(id))
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.sweepOrder = kept
}

// runSweep feeds the sweep's cells to the job pool in expansion order, at
// most cap(s.slots) in flight: each cell takes a slot before it is
// scheduled and its child run's terminal transition gives the slot back.
// Cells sharing a topology therefore run back to back and reuse the pooled
// graph (concurrent first-misses on one key coalesce in the cache). A slot
// send never waits forever: every taken slot belongs to a scheduled child,
// and every child reaches finishLocked — the workers drain the queue even
// on shutdown.
func (m *Manager) runSweep(s *sweep) {
	defer m.sweepWG.Done()
	for i := range s.cells {
		s.slots <- struct{}{}
		if s.ctx.Err() != nil || m.scheduleCell(s, i) != nil {
			// Cancelled, or shutdown (queue pressure is waited out): the
			// slot goes back unused, and finalizeSweep cancels the
			// unscheduled rest.
			<-s.slots
			break
		}
	}
	// Every slot free again means every scheduled cell has finished.
	for range cap(s.slots) {
		s.slots <- struct{}{}
	}
	m.finalizeSweep(s)
}

// scheduleCell enqueues one cell's child run, waiting out transient queue
// pressure. Cells whose content key is already in the result store come
// back as born-done jobs without touching the queue — on a resumed sweep
// that is every cell that finished before the crash; on a repeated grid,
// all of them. In fleet mode a store miss goes through the claim protocol
// first, so no two workers execute one cell concurrently. A non-transient
// failure records the cell as cancelled and is returned.
func (m *Manager) scheduleCell(s *sweep, i int) error {
	// The store read happens before the lock, like Submit's.
	cached := m.lookupStored(s.cells[i].req)
	var fence uint64
	claimed := false
	if cached == nil && m.claimsEnabled() {
		claimed, fence, cached = m.claimCell(s, i)
	}
	for {
		m.mu.Lock()
		// Re-check cancellation under the lock: CancelSweep cancels the
		// sweep's queued and running cells while holding m.mu, so a cell
		// enqueued after a cancel it did not see would escape it entirely.
		if s.cancelled || s.ctx.Err() != nil {
			m.markCellLocked(s, i, StateCancelled, "")
			m.mu.Unlock()
			return context.Canceled
		}
		j, err := m.enqueueLocked(s.cells[i].req, s, i, cached)
		if err == nil {
			// The claim fields are set in the same critical section as the
			// enqueue: the worker that pops this job first takes m.mu, so
			// it always observes them.
			j.claimed, j.claimFence = claimed, fence
			if cached != nil {
				s.cellsCached++
				m.mx.cellsCached.Inc()
			}
			m.mu.Unlock()
			return nil
		}
		if !errors.Is(err, ErrQueueFull) {
			// Shutdown: the sweep was interrupted, so it must finalise as
			// cancelled, not report a partial grid as done.
			s.cancelled = true
			m.markCellLocked(s, i, StateCancelled, "")
			m.mu.Unlock()
			return err
		}
		m.mu.Unlock()
		select {
		case <-time.After(2 * time.Millisecond):
		case <-s.ctx.Done():
			m.mu.Lock()
			m.markCellLocked(s, i, StateCancelled, "")
			m.mu.Unlock()
			return s.ctx.Err()
		}
	}
}

// claimCell runs the fleet claim protocol for one cell: lease the cell's
// content key, or — when a peer holds it — poll until the peer's result
// lands (serve it cached) or its lease expires (take it over). Returns
// either a live claim (claimed, fence) or a cached result, or neither:
// cancellation and store errors fall back to unclaimed execution, which
// is always safe because results are first-write-wins. Called without
// m.mu held — every path does store I/O.
func (m *Manager) claimCell(s *sweep, i int) (claimed bool, fence uint64, cached *RunResult) {
	req := s.cells[i].req
	key := contentKey(req, req.Seed) // sweep cells always carry explicit seeds
	for {
		f, err := m.cfg.Store.Claim(key, m.cfg.WorkerID, m.cfg.LeaseTTL)
		switch {
		case err == nil:
			return true, f, nil
		case errors.Is(err, store.ErrResultExists):
			// A peer finished the cell between our lookup and the claim.
			return false, 0, m.lookupStored(req)
		case errors.Is(err, store.ErrClaimHeld):
			select {
			case <-time.After(m.cfg.LeasePoll):
			case <-s.ctx.Done():
				return false, 0, nil
			}
			if c := m.lookupStored(req); c != nil {
				return false, 0, c
			}
		default:
			// Store trouble never fails the sweep; execute unclaimed.
			m.mx.storeErrors.Inc()
			return false, 0, nil
		}
	}
}

// markCellLocked moves a cell to a terminal state and publishes the cell
// event on the sweep's topic; callers hold m.mu. Publication is retained:
// a watcher attaching later replays every cell exactly once from the
// topic's snapshot.
func (m *Manager) markCellLocked(s *sweep, i int, state, errMsg string) {
	c := &s.cells[i]
	c.state = state
	c.err = errMsg
	m.mx.sweepCellsFinished.Inc()
	cv := m.cellViewLocked(s, i)
	m.bus.Publish(sweepTopic(s.id), EventCell, &cv)
}

// finishCellLocked copies a sweep child's terminal outcome into its cell
// and gives the cell's slot back; finishLocked calls it with m.mu held.
// The receive never blocks: runSweep took the slot before scheduling the
// cell.
func (m *Manager) finishCellLocked(j *job) {
	s, c := j.owner, &j.owner.cells[j.cell]
	errMsg := ""
	if j.err != nil {
		errMsg = j.err.Error()
	}
	if r := j.result; r != nil {
		c.tally = tallyReports(r.Reports)
		c.result = &CellResult{
			Trials:          r.Trials,
			RedWins:         r.RedWins,
			Consensus:       r.Consensus,
			MeanRounds:      r.MeanRounds,
			MaxRounds:       r.MaxRounds,
			PredictedRounds: r.PredictedRounds,
			Variant:         r.Variant,
			CacheHit:        r.CacheHit,
			ElapsedMS:       r.ElapsedMS,
		}
	}
	m.markCellLocked(s, j.cell, j.state, errMsg)
	<-s.slots
}

// finalizeSweep marks the sweep terminal once every scheduled cell has
// finished. Cells never handed to the pool become cancelled.
func (m *Manager) finalizeSweep(s *sweep) {
	m.mu.Lock()
	for i := range s.cells {
		if s.cells[i].state == StateCellPending {
			m.markCellLocked(s, i, StateCancelled, "")
		}
	}
	if s.cancelled || s.ctx.Err() != nil {
		s.state = StateCancelled
		m.mx.sweepsCancelled.Inc()
	} else {
		s.state = StateDone
		m.mx.sweepsCompleted.Inc()
	}
	s.finished = time.Now()
	s.cancel()
	// Journal the terminal state — except when shutdown interrupted a
	// sweep nobody cancelled: its record stays "running" so the next
	// server generation resumes it from the store.
	var entry []byte
	if s.state == StateDone || s.userCancelled {
		entry = m.journalEntryLocked(s)
	}
	// The aggregate is immutable from here on; memoise it so snapshot
	// reads of finished sweeps stop paying the O(cells) fold under m.mu.
	agg := m.foldAggregateLocked(s)
	s.agg = &agg
	// The terminal summary is always the topic's last event; Close turns
	// attached watchers' streams into EOF once they drain it.
	view := m.sweepViewLocked(s, false)
	m.bus.Publish(sweepTopic(s.id), EventSweep, &view)
	m.bus.Close(sweepTopic(s.id))
	m.mu.Unlock()
	// The write happens before runSweep returns (and so before Close's
	// sweepWG wait can complete), off the manager lock like every other
	// store access.
	m.writeJournal(s.id, entry)
}

// GetSweep returns a full snapshot of the sweep, cells included.
func (m *Manager) GetSweep(id string) (SweepView, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sweeps[id]
	if !ok {
		return SweepView{}, false
	}
	return m.sweepViewLocked(s, true), true
}

// ListSweeps returns snapshots of the most recent sweeps, newest first and
// without cells, up to max (0 = 100).
func (m *Manager) ListSweeps(max int) []SweepView {
	if max <= 0 {
		max = 100
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]SweepView, 0, min(max, len(m.sweepOrder)))
	for i := len(m.sweepOrder) - 1; i >= 0 && len(out) < max; i-- {
		out = append(out, m.sweepViewLocked(m.sweeps[m.sweepOrder[i]], false))
	}
	return out
}

// CancelSweep stops scheduling new cells and cancels the sweep's queued
// and running children. It returns the post-cancel snapshot, or ok = false
// for an unknown ID; cancelling a finished sweep is a no-op.
func (m *Manager) CancelSweep(id string) (SweepView, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sweeps[id]
	if !ok {
		return SweepView{}, false
	}
	if s.state == StateRunning && !s.cancelled {
		s.cancelled = true
		s.userCancelled = true
		s.cancel()
		// A cell is queued from scheduling until its child's terminal
		// transition, and children of a running sweep are never pruned.
		for i := range s.cells {
			if s.cells[i].state == StateQueued {
				m.cancelJobLocked(m.jobs[s.cells[i].jobID])
			}
		}
	}
	return m.sweepViewLocked(s, true), true
}

// cellViewLocked snapshots one cell; callers hold m.mu. Until the child's
// terminal transition records the cell's outcome, the live child job is
// the source of truth, so an executing cell shows "running" rather than
// the "queued" set at scheduling time.
func (m *Manager) cellViewLocked(s *sweep, i int) SweepCellView {
	c := &s.cells[i]
	v := SweepCellView{
		Index:   i,
		JobID:   c.jobID,
		State:   c.state,
		Request: c.req,
		Error:   c.err,
	}
	if v.State == StateQueued {
		v.State = m.jobs[c.jobID].state
	}
	if c.result != nil {
		r := *c.result
		v.Result = &r
	}
	return v
}

// sweepViewLocked snapshots a sweep; callers hold m.mu.
func (m *Manager) sweepViewLocked(s *sweep, includeCells bool) SweepView {
	v := SweepView{
		ID:            s.id,
		State:         s.state,
		Request:       s.req,
		Aggregate:     m.aggregateLocked(s),
		CellsCached:   s.cellsCached,
		ContentKey:    s.contentKey,
		ResumeRefused: s.resumeRefused,
		Created:       s.created,
	}
	if !s.finished.IsZero() {
		t := s.finished
		v.Finished = &t
	}
	if includeCells {
		v.Cells = make([]SweepCellView, len(s.cells))
		for i := range s.cells {
			v.Cells[i] = m.cellViewLocked(s, i)
		}
	}
	return v
}

// aggregateLocked returns the sweep aggregate, memoised for terminal
// sweeps; callers hold m.mu.
func (m *Manager) aggregateLocked(s *sweep) SweepAggregate {
	if s.agg != nil {
		return *s.agg
	}
	return m.foldAggregateLocked(s)
}

// foldAggregateLocked folds the cells into the sweep aggregate; callers
// hold m.mu. Iteration is in cell-index order and every tally field is
// order-independent, so the aggregate is deterministic for a given seed
// even though cells finish in scheduling order.
func (m *Manager) foldAggregateLocked(s *sweep) SweepAggregate {
	agg := SweepAggregate{Cells: len(s.cells)}
	var tl sim.Tally
	for i := range s.cells {
		switch s.cells[i].state {
		case StateDone:
			agg.Done++
			tl.Merge(s.cells[i].tally)
		case StateFailed:
			agg.Failed++
		case StateCancelled:
			agg.Cancelled++
		default:
			agg.Pending++
		}
	}
	agg.Trials = tl.Trials
	agg.RedWins = tl.Wins
	agg.Consensus = tl.Consensus
	agg.MeanRounds = tl.MeanRounds()
	agg.MaxRounds = tl.MaxRounds
	if tl.Trials > 0 {
		w := stats.WilsonInterval(tl.Wins, tl.Trials, 1.96)
		agg.RedWinRate, agg.RedWinLo, agg.RedWinHi = w.P, w.Lo, w.Hi
		c := stats.WilsonInterval(tl.Consensus, tl.Trials, 1.96)
		agg.ConsensusRate, agg.ConsensusLo, agg.ConsensusHi = c.P, c.Lo, c.Hi
	}
	return agg
}
