// Package store is the persistent result store behind bo3serve: a
// crash-safe, append-only record log with an in-memory index, keyed by
// content. It turns the determinism contract of the spec layer — a run's
// outcome is a pure function of its canonical (spec, seed) key — into a
// correctness-preserving cache: a result recorded once never needs to be
// recomputed, and every record is auditable offline by re-executing its
// spec and diffing bytes (cmd/bo3store verify).
//
// # On-disk format
//
// A store directory holds numbered segments:
//
//	seg-000001.jsonl
//	seg-000002.jsonl        <- active (append) segment
//
// Each segment is a sequence of newline-terminated JSON records:
//
//	{"seq":12,"kind":"result","key":"4f2a…","spec":{…},"body":{…},"sum":2833443907}
//
// `sum` is a CRC-32C over (kind, key, spec, body), so a torn or corrupted
// line is detected even when it happens to remain valid JSON. Appends go
// to the active segment until it exceeds the segment size, then a new
// segment is started; with a total-bytes cap set, the oldest whole
// segments are dropped once the cap is exceeded.
//
// # Recovery
//
// Open replays every segment in order. A line that fails to parse or
// checksum, or carries seq 2⁶⁴−1 (which the allocator never hands out), is
// skipped (counted in Stats.Corrupt); a truncated tail —
// the signature of a crash mid-append — additionally truncates the active
// segment back to its last complete record so subsequent appends start on
// a clean boundary. Every complete record therefore survives any
// kill-at-any-instant crash, which is what lets a restarted server resume
// a half-finished sweep from the journal and serve every already-computed
// cell from the index.
//
// # Concurrency across processes
//
// Exclusive mode (the default) takes a non-blocking exclusive flock on
// the directory's LOCK file at Open, so two writers — a second server,
// or a compact against a live one — fail fast instead of corrupting each
// other. Read-only opens (Options.ReadOnly: used by bo3store's
// ls/get/verify) take no lock and never mutate the directory, which
// makes them safe against a live writer: records are immutable once
// written, and an in-flight append is just an unindexed tail.
//
// Shared mode (Options.Shared) is the fleet configuration: N writers —
// bo3serve worker processes pointed at one directory — coexist on one
// log. Every mutation briefly holds the exclusive flock for its critical
// section: refresh the index from the log's tail (picking up records
// other workers appended), heal a crashed writer's torn tail by
// terminating the partial line, then append. Because every complete
// record is immutable and appends are serialized by the lock, each
// worker's index is a consistent prefix of the shared history, and
// first-write-wins result semantics hold fleet-wide. Read misses refresh
// lock-free (a torn or in-flight tail simply stays unindexed until the
// next look). Size-bounded pruning and Compact are exclusive-mode
// operations and are rejected in shared mode.
//
// # Record kinds
//
// Three kinds share the log. KindResult records are immutable and
// content-addressed: the key is spec.RunSpec.ContentKey() and the first
// record for a key wins (duplicates are ignored — by determinism they
// carry identical bodies). KindSweep records journal sweep lifecycles
// under the sweep ID; the latest record per ID is the sweep's current
// state (a record with a null body is a tombstone that forgets the ID),
// and Compact rewrites the log keeping only live records. KindClaim
// records coordinate a worker fleet: a claim grants one worker a lease
// on a content key until a deadline, fenced by the record's sequence
// number, so two workers never execute the same cell concurrently — see
// claims.go for the protocol.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Record kinds.
const (
	// KindResult is a content-addressed run result: Key is the canonical
	// content key of the spec, Spec the canonical spec JSON, Body the
	// deterministic result projection.
	KindResult = "result"
	// KindSweep is a sweep-journal entry: Key is the sweep ID, Body the
	// serve layer's journal payload. Later records supersede earlier ones;
	// a record with a null body tombstones the ID out of the journal.
	KindSweep = "sweep"
	// KindClaim is a lease record: Key is the claimed content key, Body a
	// claimBody (worker, state, deadline, fencing sequence). The latest
	// record per key is the claim's current state.
	KindClaim = "claim"
)

// Record is one log entry as it appears on disk.
type Record struct {
	// Seq is the store-wide append sequence, monotone across segments.
	Seq  uint64 `json:"seq"`
	Kind string `json:"kind"`
	Key  string `json:"key"`
	// Spec is the canonical spec JSON (results only).
	Spec json.RawMessage `json:"spec,omitempty"`
	// Body is the payload.
	Body json.RawMessage `json:"body"`
	// Sum is the CRC-32C over (kind, key, spec, body).
	Sum uint32 `json:"sum"`
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// checksum covers every content field of a record, so a line that was
// torn at a JSON-valid boundary or bit-flipped at rest still fails to
// verify.
func checksum(kind, key string, spec, body []byte) uint32 {
	h := crc32.New(crcTable)
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write(spec)
	h.Write([]byte{0})
	h.Write(body)
	return h.Sum32()
}

// valid also refuses seq noSeq, which Sum does not cover: indexing it
// would wrap the sequence.
func (r Record) valid() bool {
	return (r.Kind == KindResult || r.Kind == KindSweep || r.Kind == KindClaim) &&
		r.Key != "" && r.Seq != noSeq &&
		r.Sum == checksum(r.Kind, r.Key, r.Spec, r.Body)
}

// Options tune a store.
type Options struct {
	// MaxSegmentBytes rolls the active segment once it exceeds this size
	// (0 = 8 MiB). Rolling bounds both the recovery scan unit and the
	// granularity of MaxBytes pruning.
	MaxSegmentBytes int64
	// MaxBytes caps the store's total on-disk size; once exceeded, the
	// oldest whole segments (and the index entries into them) are dropped.
	// 0 = unbounded. The active segment is never dropped.
	MaxBytes int64
	// ReadOnly opens the store for inspection: segments are opened
	// read-only, torn tails are skipped but never truncated, no segment
	// or directory is created, and the mutating methods fail with
	// ErrReadOnly. Read-only opens take no lock and are safe against a
	// concurrently appending writer: records are immutable once written,
	// and a partially written tail is simply not indexed.
	ReadOnly bool
	// Shared opens the store for fleet use: multiple writer handles — in
	// one process or many — share the directory, serializing mutations
	// with a per-operation flock instead of a process-lifetime one, and
	// refreshing their index from the log tail before every decision.
	// MaxBytes pruning and Compact are unsupported in shared mode (they
	// delete segments other writers hold open) and fail with ErrShared.
	// Every writer on a directory must agree on the mode: a shared writer
	// blocks on an exclusive writer's lock until it closes.
	Shared bool
	// Metrics receives the store's latency histograms and counters
	// (store.NewMetrics on the server's shared registry). Nil counts into
	// a private registry: the instruments still back Stats(), they are
	// just not exported anywhere.
	Metrics *Metrics
	// Logger receives structured recovery and compaction logs. Nil
	// discards them.
	Logger *slog.Logger
}

// ErrReadOnly rejects mutations on a read-only store.
var ErrReadOnly = errors.New("store: opened read-only")

// ErrShared rejects segment-deleting operations on a shared store.
var ErrShared = errors.New("store: operation unsupported in shared mode")

// errSeqExhausted fails an append once every sequence number below noSeq
// has been handed out.
var errSeqExhausted = errors.New("store: record sequence exhausted")

// noSeq is the one sequence number the allocator never hands out: the next
// one would wrap to 0, and a claim's fence is its grant's sequence number,
// which must never be granted twice (claims.go). A record carrying it is
// corrupt.
const noSeq = math.MaxUint64

const defaultSegmentBytes = 8 << 20

// Stats is a counter snapshot.
type Stats struct {
	// Results is the number of distinct result records indexed.
	Results int `json:"results"`
	// Sweeps is the number of distinct sweep IDs journaled.
	Sweeps int `json:"sweeps"`
	// Claims is the number of held claim leases indexed (expired ones
	// included until taken over or released).
	Claims int `json:"claims"`
	// Segments and Bytes describe the on-disk footprint.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	// Hits and Misses count GetResult lookups.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Appends counts records written in this process.
	Appends int64 `json:"appends"`
	// Corrupt counts records dropped during recovery (torn tails,
	// checksum failures); Evicted counts records dropped by MaxBytes
	// segment pruning.
	Corrupt int64 `json:"corrupt"`
	Evicted int64 `json:"evicted"`
}

// segment is one on-disk log file.
type segment struct {
	id   uint64
	path string
	f    *os.File
	size int64
}

// loc is an index pointer to one record line.
type loc struct {
	seg *segment
	off int64
	n   int64
}

type resultEntry struct {
	loc
	seq  uint64
	spec json.RawMessage // held in memory for filtered listings
}

type sweepEntry struct {
	loc
	seq uint64
}

// claimEntry is the in-memory state of the latest held claim per key
// (released claims and claims superseded by a result are dropped from the
// index entirely).
type claimEntry struct {
	loc
	worker   string
	fence    uint64
	deadline int64 // UnixMilli
}

// Store is the handle. All methods are safe for concurrent use within
// one process; across processes, writers take an exclusive advisory lock
// on the directory (a second writer — another server, or a compact
// against a live one — fails to open), while read-only opens coexist
// with a writer freely.
type Store struct {
	dir  string
	opts Options
	// lock is the LOCK file handle: flocked for the store's lifetime in
	// exclusive mode, flocked per mutation in shared mode, nil when
	// read-only.
	lock *os.File

	mu         sync.RWMutex
	segs       []*segment
	nextSeg    uint64 // next segment id; never reused, even across Compact
	seq        uint64
	results    map[string]*resultEntry
	resultKeys []string // append order
	sweeps     map[string]*sweepEntry
	sweepKeys  []string // first-seen order
	claims     map[string]*claimEntry
	bytes      int64

	corrupt, evicted int64
	mx               *Metrics
	log              *slog.Logger

	// crashAfter (tests only, set via failAfterBytes) makes segment writes
	// stop after this many more bytes reach the file and return
	// errCrashInjected — the on-disk signature of a kill mid-append.
	crashArmed bool
	crashAfter int64
}

// errCrashInjected is returned by writes cut short by failAfterBytes.
var errCrashInjected = errors.New("store: injected crash after byte budget")

// Open opens (or creates) the store at dir, replaying every segment into
// the in-memory index and recovering past torn writes.
func Open(dir string, opts Options) (*Store, error) {
	if opts.MaxSegmentBytes <= 0 {
		opts.MaxSegmentBytes = defaultSegmentBytes
	}
	if opts.Shared && opts.MaxBytes > 0 {
		// Pruning deletes segments other writers hold open.
		return nil, ErrShared
	}
	if opts.Metrics == nil {
		opts.Metrics = NewMetrics(metrics.NewRegistry())
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.DiscardHandler)
	}
	s := &Store{
		dir:     dir,
		opts:    opts,
		results: make(map[string]*resultEntry),
		sweeps:  make(map[string]*sweepEntry),
		claims:  make(map[string]*claimEntry),
		mx:      opts.Metrics,
		log:     opts.Logger,
	}
	if opts.ReadOnly {
		if _, err := os.Stat(dir); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	} else {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		// Shared handles only hold the flock per mutation (see
		// lockedMutation); exclusive ones hold it for their lifetime.
		var lock *os.File
		var err error
		if opts.Shared {
			lock, err = openLockFile(filepath.Join(dir, "LOCK"))
		} else {
			lock, err = acquireLock(filepath.Join(dir, "LOCK"))
		}
		if err != nil {
			return nil, err
		}
		s.lock = lock
	}
	paths, err := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if err != nil {
		s.releaseLock()
		return nil, fmt.Errorf("store: %w", err)
	}
	sort.Strings(paths) // zero-padded ids sort numerically
	for i, path := range paths {
		seg, err := s.openSegment(path, i == len(paths)-1, true)
		if err != nil {
			s.closeSegmentsLocked()
			s.releaseLock()
			return nil, err
		}
		s.segs = append(s.segs, seg)
		s.bytes += seg.size
		if seg.id >= s.nextSeg {
			s.nextSeg = seg.id + 1
		}
	}
	if len(s.segs) == 0 && !opts.ReadOnly {
		if err := s.rollLocked(); err != nil {
			s.releaseLock()
			return nil, err
		}
	}
	if s.corrupt > 0 {
		s.log.Warn("store: recovery dropped corrupt records",
			"dir", dir, "corrupt", s.corrupt, "results", len(s.results), "sweeps", len(s.sweeps))
	}
	return s, nil
}

// releaseLock drops the writer lock, if held.
func (s *Store) releaseLock() {
	if s.lock != nil {
		s.lock.Close()
		s.lock = nil
	}
}

// openSegment reads one segment file, indexing every valid record.
// Corrupt lines are skipped; when active, the file is truncated back to
// the end of its last valid record so appends resume on a clean boundary.
// countTorn counts an unterminated tail in Stats.Corrupt (the initial
// open does; shared-mode refresh discovery does not — the tail may be a
// concurrent append in flight, not damage).
func (s *Store) openSegment(path string, active, countTorn bool) (*segment, error) {
	var id uint64
	if _, err := fmt.Sscanf(filepath.Base(path), "seg-%d.jsonl", &id); err != nil {
		return nil, fmt.Errorf("store: segment name %q: %w", filepath.Base(path), err)
	}
	mode := os.O_RDWR
	if s.opts.ReadOnly {
		mode = os.O_RDONLY
	}
	f, err := os.OpenFile(path, mode, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	seg := &segment{id: id, path: path, f: f}
	good, complete, err := s.scanSegment(seg, 0, countTorn)
	if err != nil {
		f.Close()
		return nil, err
	}
	if active && good < seg.size && !s.opts.ReadOnly && !s.opts.Shared {
		// Drop the torn tail so the next append starts a fresh line. A
		// read-only open leaves the file untouched — the torn tail is
		// simply not indexed, and may well be a concurrent writer's
		// append in flight. A shared open cannot truncate without the
		// directory lock; it records the last terminated-line boundary
		// and heals the tear under the flock at its first mutation
		// (appendLocked).
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, fmt.Errorf("store: truncate %s: %w", path, err)
		}
		seg.size = good
	}
	if s.opts.Shared {
		// Shared handles track the consumed prefix, not the on-disk size:
		// refreshLocked rescans from here, so an unterminated tail is
		// re-examined once more bytes (or the healing newline) land.
		seg.size = complete
	}
	return seg, nil
}

// scanSegment parses and indexes the segment's records from offset from
// to EOF. It returns good, the end of the last valid record, and
// complete, the end of the last newline-terminated line; an unterminated
// tail — a crash or a concurrent append in flight — lies beyond complete
// and is never indexed. countTorn counts that tail in Stats.Corrupt (the
// initial open does; shared-mode refreshes do not, or every rescan of a
// still-in-flight tail would inflate the counter). seg.size is advanced
// to the scanned end of file.
func (s *Store) scanSegment(seg *segment, from int64, countTorn bool) (good, complete int64, err error) {
	r := bufio.NewReaderSize(io.NewSectionReader(seg.f, from, 1<<62), 1<<16)
	off := from
	good, complete = from, from
	for {
		line, err := r.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return 0, 0, fmt.Errorf("store: read %s: %w", seg.path, err)
		}
		n := int64(len(line))
		torn := err == io.EOF && n > 0 // no trailing newline: mid-append crash
		if n > 0 {
			var rec Record
			switch {
			case torn:
				if countTorn {
					s.corrupt++
				}
			case json.Unmarshal(line, &rec) == nil && rec.valid():
				s.index(rec, loc{seg: seg, off: off, n: n})
				good = off + n
				complete = off + n
			default:
				s.corrupt++
				complete = off + n
			}
			off += n
		}
		if err == io.EOF {
			break
		}
	}
	seg.size = off
	return good, complete, nil
}

// index applies one replayed or appended record to the in-memory maps.
func (s *Store) index(rec Record, l loc) {
	if rec.Seq >= s.seq {
		s.seq = rec.Seq + 1
	}
	switch rec.Kind {
	case KindResult:
		// A recorded result supersedes any claim on the key: the work is
		// done, so the lease has nothing left to protect.
		delete(s.claims, rec.Key)
		if _, dup := s.results[rec.Key]; dup {
			return // first write wins; duplicates are byte-identical by determinism
		}
		s.results[rec.Key] = &resultEntry{loc: l, seq: rec.Seq, spec: append(json.RawMessage(nil), rec.Spec...)}
		s.resultKeys = append(s.resultKeys, rec.Key)
	case KindSweep:
		if isTombstone(rec.Body) {
			// A null body forgets the ID: the journal converges to the
			// high-water-mark record instead of one record per sweep ever
			// run (see the serve layer's ResumeSweeps).
			if _, ok := s.sweeps[rec.Key]; ok {
				delete(s.sweeps, rec.Key)
				s.dropSweepKey(rec.Key)
			}
			return
		}
		e, ok := s.sweeps[rec.Key]
		if !ok {
			e = &sweepEntry{}
			s.sweeps[rec.Key] = e
			s.sweepKeys = append(s.sweepKeys, rec.Key)
		}
		e.loc, e.seq = l, rec.Seq
	case KindClaim:
		var body claimBody
		if json.Unmarshal(rec.Body, &body) != nil {
			s.corrupt++
			return
		}
		if body.State == claimReleased {
			delete(s.claims, rec.Key)
			return
		}
		if _, done := s.results[rec.Key]; done {
			return // result already recorded; the claim is moot
		}
		s.claims[rec.Key] = &claimEntry{loc: l, worker: body.Worker, fence: body.Fence, deadline: body.Deadline}
	}
}

// isTombstone reports a sweep-journal body that deletes its ID.
func isTombstone(body json.RawMessage) bool {
	return len(body) == 0 || string(body) == "null"
}

// dropSweepKey removes one ID from the first-seen order slice.
func (s *Store) dropSweepKey(id string) {
	for i, k := range s.sweepKeys {
		if k == id {
			s.sweepKeys = append(s.sweepKeys[:i], s.sweepKeys[i+1:]...)
			return
		}
	}
}

// rollLocked starts a new active segment; callers hold s.mu.
func (s *Store) rollLocked() error {
	if s.nextSeg == 0 {
		s.nextSeg = 1
	}
	id := s.nextSeg
	s.nextSeg = id + 1
	path := filepath.Join(s.dir, fmt.Sprintf("seg-%06d.jsonl", id))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.segs = append(s.segs, &segment{id: id, path: path, f: f})
	return nil
}

// beginMutationLocked enters a mutation's critical section; callers hold
// s.mu. In shared mode it takes the directory flock (serializing against
// every other writer handle), refreshes the index from the log tail, and
// heals any crashed writer's torn tail so the coming append starts on a
// clean line. Exclusive and read-only handles need none of that. Callers
// must pair it with endMutationLocked.
func (s *Store) beginMutationLocked() error {
	if !s.opts.Shared {
		return nil
	}
	if err := flockEx(s.lock); err != nil {
		return err
	}
	if err := s.refreshLocked(true); err != nil {
		flockUn(s.lock)
		return err
	}
	return nil
}

// endMutationLocked leaves the critical section begun by
// beginMutationLocked; callers hold s.mu.
func (s *Store) endMutationLocked() {
	if s.opts.Shared {
		flockUn(s.lock)
	}
}

// refreshLocked brings a shared handle's index up to date with the log:
// it rescans the active segment's tail and opens segments other writers
// rolled. With heal set (mutation paths, which hold the directory flock),
// an unterminated tail — a writer killed mid-append; it cannot be an
// append in flight, because appends happen under the flock we hold — is
// terminated with a newline so it parses as one corrupt line and the next
// append starts cleanly. Without heal (read paths, lock-free), the tail
// is left alone and simply stays unindexed. Callers hold s.mu; no-op for
// non-shared handles.
func (s *Store) refreshLocked(heal bool) error {
	if !s.opts.Shared {
		return nil
	}
	// 1. Consume the known tail: anything appended to the last known
	// segment since the previous refresh.
	if err := s.rescanTailLocked(); err != nil {
		return err
	}
	// 2. Discover segments other writers rolled. A writer only rolls
	// after its last append to the old segment, so by the time a new
	// segment is visible the old one's content is final.
	paths, err := filepath.Glob(filepath.Join(s.dir, "seg-*.jsonl"))
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	sort.Strings(paths)
	known := uint64(0)
	if len(s.segs) > 0 {
		known = s.segs[len(s.segs)-1].id
	}
	grew := false
	for _, path := range paths {
		var id uint64
		if _, err := fmt.Sscanf(filepath.Base(path), "seg-%d.jsonl", &id); err != nil || id <= known {
			continue
		}
		seg, err := s.openSegment(path, false, false)
		if err != nil {
			return err
		}
		s.segs = append(s.segs, seg)
		s.bytes += seg.size
		if seg.id >= s.nextSeg {
			s.nextSeg = seg.id + 1
		}
		grew = true
	}
	if grew {
		// The freshly discovered last segment may itself have a tail.
		if err := s.rescanTailLocked(); err != nil {
			return err
		}
	}
	if !heal || len(s.segs) == 0 {
		return nil
	}
	// 3. Heal: if unconsumed bytes remain past the last terminated line,
	// they are a crashed writer's torn tail. Terminate it.
	active := s.segs[len(s.segs)-1]
	info, err := active.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if disk := info.Size(); disk > active.size {
		if _, err := active.f.WriteAt([]byte{'\n'}, disk); err != nil {
			return fmt.Errorf("store: heal %s: %w", filepath.Base(active.path), err)
		}
		_, complete, err := s.scanSegment(active, active.size, false)
		if err != nil {
			return err
		}
		prev := active.size
		active.size = complete
		s.bytes += complete - prev
	}
	return nil
}

// rescanTailLocked indexes records appended to the last known segment
// since this handle last looked; callers hold s.mu, shared mode only.
func (s *Store) rescanTailLocked() error {
	if len(s.segs) == 0 {
		return nil
	}
	active := s.segs[len(s.segs)-1]
	info, err := active.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if info.Size() <= active.size {
		return nil
	}
	prev := active.size
	_, complete, err := s.scanSegment(active, active.size, false)
	if err != nil {
		return err
	}
	active.size = complete
	s.bytes += complete - prev
	return nil
}

// appendLocked assigns the next sequence number, writes the record, and
// prunes; callers hold s.mu and, in shared mode, are inside a
// beginMutationLocked critical section. Returns the record's location.
func (s *Store) appendLocked(rec *Record) (loc, error) {
	if s.seq == noSeq {
		return loc{}, errSeqExhausted
	}
	rec.Seq = s.seq
	s.seq++
	l, err := s.writeLocked(rec)
	if err != nil {
		return loc{}, err
	}
	s.pruneLocked()
	return l, nil
}

// writeLocked writes one record to the active segment as-is (its Seq is
// the caller's — Compact replays history under original numbers), rolling
// beforehand when the segment is full; callers hold s.mu.
func (s *Store) writeLocked(rec *Record) (loc, error) {
	start := time.Now()
	rec.Sum = checksum(rec.Kind, rec.Key, rec.Spec, rec.Body)
	line, err := json.Marshal(rec)
	if err != nil {
		return loc{}, fmt.Errorf("store: %w", err)
	}
	line = append(line, '\n')
	active := s.segs[len(s.segs)-1]
	if active.size > 0 && active.size+int64(len(line)) > s.opts.MaxSegmentBytes {
		if err := s.rollLocked(); err != nil {
			return loc{}, err
		}
		active = s.segs[len(s.segs)-1]
	}
	if s.crashArmed {
		// Crash injection (tests): write only the remaining byte budget,
		// leaving the torn, unterminated tail a kill mid-append would.
		allowed := int64(len(line))
		if s.crashAfter < allowed {
			allowed = s.crashAfter
		}
		s.crashAfter -= allowed
		if allowed < int64(len(line)) {
			if allowed > 0 {
				if _, err := active.f.WriteAt(line[:allowed], active.size); err != nil {
					return loc{}, fmt.Errorf("store: append: %w", err)
				}
			}
			active.size += allowed
			s.bytes += allowed
			return loc{}, errCrashInjected
		}
	}
	if _, err := active.f.WriteAt(line, active.size); err != nil {
		return loc{}, fmt.Errorf("store: append: %w", err)
	}
	l := loc{seg: active, off: active.size, n: int64(len(line))}
	active.size += int64(len(line))
	s.bytes += int64(len(line))
	s.mx.Appends.Inc()
	s.mx.BytesAppended.Add(int64(len(line)))
	s.mx.WriteSeconds.ObserveSince(start)
	return l, nil
}

// pruneLocked drops the oldest whole segments while the store exceeds
// MaxBytes; callers hold s.mu. Result entries into dropped segments
// vanish with them — a pruned result is a future cache miss, nothing
// more. Sweep-journal records are different: they are the crash-resume
// state and the sweep-ID high-water mark, so the latest record per sweep
// is rewritten into the active segment (sequence preserved) before its
// segment is dropped, and survives any amount of pruning.
func (s *Store) pruneLocked() {
	if s.opts.MaxBytes <= 0 || s.opts.Shared {
		return
	}
	for s.bytes > s.opts.MaxBytes && len(s.segs) > 1 {
		victim := s.segs[0]
		s.rescueSweepsLocked(victim)
		s.segs = s.segs[1:]
		s.bytes -= victim.size
		s.dropEntriesIn(victim)
		victim.f.Close()
		os.Remove(victim.path)
	}
}

// rescueSweepsLocked rewrites the live sweep-journal records located in
// the segment about to be pruned into the active segment; callers hold
// s.mu. The victim is never the active segment (pruneLocked's len > 1
// guard), so the rewrite always moves records forward.
func (s *Store) rescueSweepsLocked(victim *segment) {
	for _, id := range s.sweepKeys {
		e := s.sweeps[id]
		if e.seg != victim {
			continue
		}
		rec, err := s.readLocked(e.loc)
		if err != nil {
			continue // unreadable: drop with the segment
		}
		if l, err := s.writeLocked(&rec); err == nil {
			e.loc = l
		}
	}
}

// dropEntriesIn removes every index entry located in seg.
func (s *Store) dropEntriesIn(seg *segment) {
	keep := s.resultKeys[:0]
	for _, k := range s.resultKeys {
		if s.results[k].seg == seg {
			delete(s.results, k)
			s.evicted++
			continue
		}
		keep = append(keep, k)
	}
	s.resultKeys = keep
	keepSweeps := s.sweepKeys[:0]
	for _, k := range s.sweepKeys {
		if s.sweeps[k].seg == seg {
			delete(s.sweeps, k)
			s.evicted++
			continue
		}
		keepSweeps = append(keepSweeps, k)
	}
	s.sweepKeys = keepSweeps
	for k, e := range s.claims {
		if e.seg == seg {
			delete(s.claims, k)
			s.evicted++
		}
	}
}

// readLocked fetches one record line; callers hold s.mu (read or write).
func (s *Store) readLocked(l loc) (Record, error) {
	buf := make([]byte, l.n)
	if _, err := l.seg.f.ReadAt(buf, l.off); err != nil {
		return Record{}, fmt.Errorf("store: read %s@%d: %w", filepath.Base(l.seg.path), l.off, err)
	}
	var rec Record
	if err := json.Unmarshal(bytes.TrimSuffix(buf, []byte{'\n'}), &rec); err != nil {
		return Record{}, fmt.Errorf("store: decode %s@%d: %w", filepath.Base(l.seg.path), l.off, err)
	}
	if !rec.valid() {
		return Record{}, fmt.Errorf("store: record %s@%d fails checksum", filepath.Base(l.seg.path), l.off)
	}
	return rec, nil
}

// PutResult records a result under its content key. The first record for
// a key wins: a duplicate put is a no-op (reported false) — by the
// determinism contract a re-executed spec produces the identical body.
func (s *Store) PutResult(key string, spec, body []byte) (written bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opts.ReadOnly {
		return false, ErrReadOnly
	}
	if _, dup := s.results[key]; dup {
		return false, nil
	}
	if err := s.beginMutationLocked(); err != nil {
		return false, err
	}
	defer s.endMutationLocked()
	if _, dup := s.results[key]; dup {
		return false, nil // another worker recorded it first (shared-mode refresh)
	}
	rec := Record{Kind: KindResult, Key: key, Spec: spec, Body: body}
	l, err := s.appendLocked(&rec)
	if err != nil {
		return false, err
	}
	// Pruning inside appendLocked can only drop older segments, never the
	// active one just written.
	s.index(rec, l)
	return true, nil
}

// GetResult looks a result up by content key, reading the body from disk.
// In shared mode a miss refreshes the index from the log tail first, so a
// result another worker just recorded is a hit, not a miss.
func (s *Store) GetResult(key string) (Record, bool, error) {
	// The hit/miss counters are atomic instruments, so they need no lock
	// transitions; the latency histogram covers the whole lookup,
	// shared-mode refresh included.
	start := time.Now()
	defer s.mx.ReadSeconds.ObserveSince(start)
	s.mu.RLock()
	e, ok := s.results[key]
	if !ok && s.opts.Shared {
		s.mu.RUnlock()
		s.mu.Lock()
		if err := s.refreshLocked(false); err != nil {
			s.mu.Unlock()
			return Record{}, false, err
		}
		e, ok = s.results[key]
		if !ok {
			s.mu.Unlock()
			s.mx.Misses.Inc()
			return Record{}, false, nil
		}
		rec, err := s.readLocked(e.loc)
		s.mu.Unlock()
		if err != nil {
			return Record{}, false, err
		}
		s.mx.Hits.Inc()
		return rec, true, nil
	}
	if !ok {
		s.mu.RUnlock()
		s.mx.Misses.Inc()
		return Record{}, false, nil
	}
	rec, err := s.readLocked(e.loc)
	s.mu.RUnlock()
	if err != nil {
		return Record{}, false, err
	}
	s.mx.Hits.Inc()
	return rec, true, nil
}

// ResultInfo is one index entry of a listing: the content key, the append
// sequence, and the canonical spec (the body stays on disk; fetch it with
// GetResult).
type ResultInfo struct {
	Key  string
	Seq  uint64
	Spec json.RawMessage
}

// Results snapshots the result index in append order (oldest first). In
// shared mode the index is refreshed from the log tail first, so results
// other workers recorded are included.
func (s *Store) Results() []ResultInfo {
	if s.opts.Shared {
		s.mu.Lock()
		_ = s.refreshLocked(false) // best-effort; the listing is a snapshot anyway
		s.mu.Unlock()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ResultInfo, 0, len(s.resultKeys))
	for _, k := range s.resultKeys {
		e := s.results[k]
		out = append(out, ResultInfo{Key: k, Seq: e.seq, Spec: e.spec})
	}
	return out
}

// PutSweep appends one sweep-journal record under the sweep ID. Unlike
// results, every put is recorded: later records supersede earlier ones
// and Compact drops the superseded history.
func (s *Store) PutSweep(id string, body []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opts.ReadOnly {
		return ErrReadOnly
	}
	if err := s.beginMutationLocked(); err != nil {
		return err
	}
	defer s.endMutationLocked()
	rec := Record{Kind: KindSweep, Key: id, Body: body}
	l, err := s.appendLocked(&rec)
	if err != nil {
		return err
	}
	s.index(rec, l)
	return nil
}

// DeleteSweep appends a null-body tombstone that forgets the sweep ID
// from the journal; Compact then drops the superseded history, and other
// shared-mode workers forget the ID at their next refresh. This is what
// keeps restart scans O(active sweeps): the serve layer collapses
// terminal sweep records into its high-water-mark record and tombstones
// the IDs. Deleting an unknown ID is a no-op.
func (s *Store) DeleteSweep(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opts.ReadOnly {
		return ErrReadOnly
	}
	if err := s.beginMutationLocked(); err != nil {
		return err
	}
	defer s.endMutationLocked()
	if _, ok := s.sweeps[id]; !ok {
		return nil
	}
	// The explicit "null" (rather than a nil RawMessage) keeps the
	// checksum stable across the write/replay round trip.
	rec := Record{Kind: KindSweep, Key: id, Body: json.RawMessage("null")}
	l, err := s.appendLocked(&rec)
	if err != nil {
		return err
	}
	s.index(rec, l)
	return nil
}

// SweepInfo is the latest journal record for one sweep ID.
type SweepInfo struct {
	ID   string
	Seq  uint64
	Body json.RawMessage
}

// Sweeps returns the latest journal record per sweep ID, in first-seen
// order, reading bodies from disk. In shared mode the index is refreshed
// from the log tail first.
func (s *Store) Sweeps() ([]SweepInfo, error) {
	if s.opts.Shared {
		s.mu.Lock()
		err := s.refreshLocked(false)
		s.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]SweepInfo, 0, len(s.sweepKeys))
	for _, id := range s.sweepKeys {
		e := s.sweeps[id]
		rec, err := s.readLocked(e.loc)
		if err != nil {
			return nil, err
		}
		out = append(out, SweepInfo{ID: id, Seq: e.seq, Body: rec.Body})
	}
	return out, nil
}

// Compact rewrites the log keeping only live records — every indexed
// result, the latest journal record per sweep, and every held claim —
// and deletes the old segments. Record sequence numbers are preserved,
// so compaction never reorders history. Unsupported (ErrShared) in
// shared mode: deleting segments would pull them out from under the
// other writers.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opts.ReadOnly {
		return ErrReadOnly
	}
	if s.opts.Shared {
		return ErrShared
	}

	// Gather live records (reads go through the old segments).
	type liveRec struct {
		rec Record
		res *resultEntry
		sw  *sweepEntry
		cl  *claimEntry
	}
	live := make([]liveRec, 0, len(s.resultKeys)+len(s.sweepKeys)+len(s.claims))
	for _, k := range s.resultKeys {
		e := s.results[k]
		rec, err := s.readLocked(e.loc)
		if err != nil {
			return err
		}
		live = append(live, liveRec{rec: rec, res: e})
	}
	for _, id := range s.sweepKeys {
		e := s.sweeps[id]
		rec, err := s.readLocked(e.loc)
		if err != nil {
			return err
		}
		live = append(live, liveRec{rec: rec, sw: e})
	}
	// Held claims survive compaction (expired ones included — takeover
	// reads the fence from the log), iterated in sorted key order so the
	// rewrite is deterministic.
	claimKeys := make([]string, 0, len(s.claims))
	for k := range s.claims {
		claimKeys = append(claimKeys, k)
	}
	sort.Strings(claimKeys)
	for _, k := range claimKeys {
		e := s.claims[k]
		rec, err := s.readLocked(e.loc)
		if err != nil {
			return err
		}
		live = append(live, liveRec{rec: rec, cl: e})
	}
	sort.SliceStable(live, func(i, j int) bool { return live[i].rec.Seq < live[j].rec.Seq })

	old := s.segs
	oldBytes := s.bytes
	s.segs = nil
	s.bytes = 0
	if err := s.rollLocked(); err != nil {
		s.segs, s.bytes = old, oldBytes
		return err
	}
	for _, lr := range live {
		rec := lr.rec
		l, err := s.writeLocked(&rec)
		if err != nil {
			return err
		}
		switch {
		case lr.res != nil:
			lr.res.loc = l
		case lr.sw != nil:
			lr.sw.loc = l
		default:
			lr.cl.loc = l
		}
	}
	for _, seg := range old {
		seg.f.Close()
		os.Remove(seg.path)
	}
	s.mx.Compactions.Inc()
	s.log.Info("store: compacted log",
		"dir", s.dir, "records", len(live),
		"bytes_before", oldBytes, "bytes_after", s.bytes)
	return nil
}

// Stats returns a counter snapshot.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Results:  len(s.results),
		Sweeps:   len(s.sweeps),
		Claims:   len(s.claims),
		Segments: len(s.segs),
		Bytes:    s.bytes,
		Hits:     s.mx.Hits.Value(),
		Misses:   s.mx.Misses.Value(),
		Appends:  s.mx.Appends.Value(),
		Corrupt:  s.corrupt,
		Evicted:  s.evicted,
	}
}

// Close closes every segment file and releases the writer lock. The
// store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.closeSegmentsLocked()
	s.releaseLock()
	return err
}

func (s *Store) closeSegmentsLocked() error {
	var first error
	for _, seg := range s.segs {
		if err := seg.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.segs = nil
	return first
}
