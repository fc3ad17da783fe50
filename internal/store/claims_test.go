package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

const ttl = time.Minute // comfortably unexpirable within a test run

func TestClaimLifecycle(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})

	fence, err := s.Claim("cell-a", "w1", ttl)
	if err != nil {
		t.Fatalf("claim: %v", err)
	}
	if st := s.Stats(); st.Claims != 1 {
		t.Fatalf("stats after claim = %+v", st)
	}

	// Another worker is excluded while the lease is live.
	if _, err := s.Claim("cell-a", "w2", ttl); !errors.Is(err, ErrClaimHeld) {
		t.Fatalf("second claim: %v, want ErrClaimHeld", err)
	}
	// The holder renews under its fence; a stale fence is rejected.
	if err := s.Renew("cell-a", "w1", fence, ttl); err != nil {
		t.Fatalf("renew: %v", err)
	}
	if err := s.Renew("cell-a", "w1", fence+1, ttl); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("renew with wrong fence: %v, want ErrLeaseLost", err)
	}
	// Re-claim by the holder extends the lease under the original fence.
	if f2, err := s.Claim("cell-a", "w1", ttl); err != nil || f2 != fence {
		t.Fatalf("re-claim by holder: fence=%d err=%v, want %d", f2, err, fence)
	}

	// A recorded result supersedes the claim: further claims see
	// ErrResultExists and the completion-path release is a no-op.
	if ok, err := s.PutResult("cell-a", specJSON(0), bodyJSON(0)); err != nil || !ok {
		t.Fatalf("put: ok=%v err=%v", ok, err)
	}
	if st := s.Stats(); st.Claims != 0 {
		t.Fatalf("claim outlived its result: %+v", st)
	}
	if _, err := s.Claim("cell-a", "w2", ttl); !errors.Is(err, ErrResultExists) {
		t.Fatalf("claim after result: %v, want ErrResultExists", err)
	}
	if err := s.Release("cell-a", "w1", fence); err != nil {
		t.Fatalf("release after result: %v, want no-op nil", err)
	}

	// Explicit release (the no-result failure path) frees the key.
	f3, err := s.Claim("cell-b", "w1", ttl)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release("cell-b", "w1", f3); err != nil {
		t.Fatalf("release: %v", err)
	}
	if _, err := s.Claim("cell-b", "w2", ttl); err != nil {
		t.Fatalf("claim after release: %v", err)
	}
}

func TestClaimExpiryTakeover(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})

	// A negative TTL grants a lease that is expired from birth — the
	// deterministic stand-in for a worker that died mid-execution.
	f1, err := s.Claim("cell", "dead", -time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := s.Claim("cell", "live", ttl)
	if err != nil {
		t.Fatalf("takeover of expired lease: %v", err)
	}
	if f2 <= f1 {
		t.Fatalf("takeover fence %d not beyond the expired fence %d", f2, f1)
	}
	// The dead worker's fence is dead with it.
	if err := s.Renew("cell", "dead", f1, ttl); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("renew on a taken-over lease: %v, want ErrLeaseLost", err)
	}
	if err := s.Release("cell", "dead", f1); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("release on a taken-over lease: %v, want ErrLeaseLost", err)
	}
	// ...and the new holder's works.
	if err := s.Renew("cell", "live", f2, ttl); err != nil {
		t.Fatalf("new holder renew: %v", err)
	}
}

func TestClaimSurvivesReopenAndCompact(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	putN(t, s, 2)
	fence, err := s.Claim("cell", "w1", ttl)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Claims != 1 {
		t.Fatalf("compact dropped the held claim: %+v", st)
	}
	if err := s.Renew("cell", "w1", fence, ttl); err != nil {
		t.Fatalf("renew after compact: %v", err)
	}
	s.Close()

	r := mustOpen(t, dir, Options{})
	claims := r.Claims()
	if len(claims) != 1 || claims[0].Key != "cell" || claims[0].Worker != "w1" || claims[0].Fence != fence {
		t.Fatalf("claims after reopen = %+v", claims)
	}
	if _, err := r.Claim("cell", "w2", ttl); !errors.Is(err, ErrClaimHeld) {
		t.Fatalf("lease not enforced across reopen: %v", err)
	}
}

// writeSegment writes recs, each with a valid checksum and its own Seq,
// as the directory's only segment: hostile but CRC-valid input.
func writeSegment(t *testing.T, dir string, recs ...Record) {
	t.Helper()
	var raw []byte
	for _, rec := range recs {
		rec.Sum = checksum(rec.Kind, rec.Key, rec.Spec, rec.Body)
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		raw = append(append(raw, line...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-000001.jsonl"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMaxSeqRecordIsCorrupt: seq lies outside the record checksum, so a
// CRC-valid record can carry seq 2⁶⁴−1, which the allocator never hands
// out. Indexing it would wrap the sequence to 0 and grant fence 0 again;
// it must count as corrupt, leaving the sequence after the last good
// record.
func TestMaxSeqRecordIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	writeSegment(t, dir,
		Record{Seq: 5, Kind: KindResult, Key: key(0), Spec: specJSON(0), Body: bodyJSON(0)},
		Record{Seq: math.MaxUint64, Kind: KindResult, Key: key(1), Spec: specJSON(1), Body: bodyJSON(1)})
	s := mustOpen(t, dir, Options{})
	if st := s.Stats(); st.Results != 1 || st.Corrupt != 1 {
		t.Fatalf("stats = %+v, want 1 result, 1 corrupt", st)
	}
	fence, err := s.Claim("cell", "w1", ttl)
	if err != nil || fence != 6 {
		t.Fatalf("claim after the seq-5 record: fence %d, err %v; want fence 6", fence, err)
	}
}

// TestSeqNeverWraps: after a record with seq 2⁶⁴−2 the store has no
// sequence number left to hand out, so the next append fails instead of
// granting fence 2⁶⁴−1 and then fence 0.
func TestSeqNeverWraps(t *testing.T) {
	dir := t.TempDir()
	writeSegment(t, dir, Record{Seq: math.MaxUint64 - 1, Kind: KindResult, Key: key(0), Spec: specJSON(0), Body: bodyJSON(0)})
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 2; i++ {
		if fence, err := s.Claim("cell", "w1", ttl); err == nil {
			t.Fatalf("claim %d granted fence %d past the last sequence number", i, fence)
		}
	}
	if ok, err := s.PutResult(key(1), specJSON(1), bodyJSON(1)); ok || err == nil {
		t.Fatalf("put past the last sequence number: ok=%v err=%v", ok, err)
	}
	if st := s.Stats(); st.Results != 1 || st.Claims != 0 || st.Corrupt != 0 {
		t.Fatalf("stats = %+v, want the one result and nothing else", st)
	}
}

// TestSharedHandlesCoordinate runs the fleet protocol with two shared
// handles on one directory — flock is per open file description, so two
// handles in one process exclude each other exactly like two processes.
func TestSharedHandlesCoordinate(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{Shared: true})
	b := mustOpen(t, dir, Options{Shared: true})

	// Claims exclude across handles.
	fa, err := a.Claim("cell", "wa", ttl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Claim("cell", "wb", ttl); !errors.Is(err, ErrClaimHeld) {
		t.Fatalf("b claimed a's cell: %v, want ErrClaimHeld", err)
	}

	// A result written by a is immediately visible to b (first write
	// wins fleet-wide) and moots the claim for everyone.
	if ok, err := a.PutResult("cell", specJSON(0), bodyJSON(0)); err != nil || !ok {
		t.Fatalf("a put: ok=%v err=%v", ok, err)
	}
	if rec, ok, err := b.GetResult("cell"); !ok || err != nil || string(rec.Body) != string(bodyJSON(0)) {
		t.Fatalf("b misses a's result: ok=%v err=%v", ok, err)
	}
	if ok, err := b.PutResult("cell", specJSON(0), bodyJSON(0)); err != nil || ok {
		t.Fatalf("duplicate put across handles not deduped: ok=%v err=%v", ok, err)
	}
	if _, err := b.Claim("cell", "wb", ttl); !errors.Is(err, ErrResultExists) {
		t.Fatalf("b claim after a's result: %v, want ErrResultExists", err)
	}
	_ = fa

	// Expired leases are taken over across handles, and the loser's
	// fence stops working.
	fdead, err := a.Claim("cell2", "wa", -time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Claim("cell2", "wb", ttl); err != nil {
		t.Fatalf("b takeover: %v", err)
	}
	if err := a.Renew("cell2", "wa", fdead, ttl); !errors.Is(err, ErrLeaseLost) {
		t.Fatalf("a renew after takeover: %v, want ErrLeaseLost", err)
	}

	// Sweep journal records and tombstones propagate.
	if err := a.PutSweep("s1", []byte(`{"state":"running"}`)); err != nil {
		t.Fatal(err)
	}
	if sweeps, err := b.Sweeps(); err != nil || len(sweeps) != 1 {
		t.Fatalf("b sweeps = %v, err %v", sweeps, err)
	}
	if err := b.DeleteSweep("s1"); err != nil {
		t.Fatal(err)
	}
	if sweeps, err := a.Sweeps(); err != nil || len(sweeps) != 0 {
		t.Fatalf("a sees tombstoned sweep: %v, err %v", sweeps, err)
	}

	// Claims listings refresh from the log too.
	if claims := a.Claims(); len(claims) != 1 || claims[0].Worker != "wb" {
		t.Fatalf("a claims listing = %+v, want wb's cell2 lease", claims)
	}
}

// TestSharedHandlesSeeRolledSegments drives one handle across several
// segment rolls and asserts the other discovers the new segments on
// refresh.
func TestSharedHandlesSeeRolledSegments(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{Shared: true, MaxSegmentBytes: 256})
	b := mustOpen(t, dir, Options{Shared: true, MaxSegmentBytes: 256})
	putN(t, a, 30)
	if st := a.Stats(); st.Segments < 2 {
		t.Fatalf("no segment roll: %+v", st)
	}
	if got := len(b.Results()); got != 30 {
		t.Fatalf("b sees %d results across rolled segments, want 30", got)
	}
	for i := 0; i < 30; i++ {
		if _, ok, err := b.GetResult(key(i)); !ok || err != nil {
			t.Fatalf("b get %d: ok=%v err=%v", i, ok, err)
		}
	}
	// And writes from b land in the discovered active segment.
	if ok, err := b.PutResult("extra", specJSON(99), bodyJSON(99)); err != nil || !ok {
		t.Fatalf("b put after discovery: ok=%v err=%v", ok, err)
	}
	if _, ok, err := a.GetResult("extra"); !ok || err != nil {
		t.Fatalf("a misses b's record: ok=%v err=%v", ok, err)
	}
}

func TestSharedModeRejectsExclusiveOnlyOps(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, Options{Shared: true, MaxBytes: 1024}); !errors.Is(err, ErrShared) {
		t.Fatalf("shared open with MaxBytes: %v, want ErrShared", err)
	}
	s := mustOpen(t, dir, Options{Shared: true})
	if err := s.Compact(); !errors.Is(err, ErrShared) {
		t.Fatalf("shared compact: %v, want ErrShared", err)
	}
}

// TestTornClaimRecovery crash-injects appends at a range of byte budgets
// — nothing on disk, a handful of bytes, most of the record — and
// asserts each torn claim is invisible after recovery while every record
// before it survives.
func TestTornClaimRecovery(t *testing.T) {
	cases := []struct {
		name string
		cut  int64
		torn bool // bytes reach the disk (a torn tail exists)
	}{
		{"nothing-written", 0, false},
		{"one-byte", 1, true},
		{"mid-json", 24, true},
		{"most-of-record", 96, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{})
			putN(t, s, 2)
			if _, err := s.Claim("survivor", "w1", ttl); err != nil {
				t.Fatal(err)
			}
			s.failAfterBytes(tc.cut)
			if _, err := s.Claim("torn", "w1", ttl); !errors.Is(err, errCrashInjected) {
				t.Fatalf("injected claim: %v, want errCrashInjected", err)
			}
			s.Close()

			r := mustOpen(t, dir, Options{})
			st := r.Stats()
			wantCorrupt := int64(0)
			if tc.torn {
				wantCorrupt = 1
			}
			if st.Results != 2 || st.Claims != 1 || st.Corrupt != wantCorrupt {
				t.Fatalf("recovered stats = %+v, want 2 results, 1 claim, %d corrupt", st, wantCorrupt)
			}
			claims := r.Claims()
			if len(claims) != 1 || claims[0].Key != "survivor" {
				t.Fatalf("claims after recovery = %+v", claims)
			}
			// The torn key is unclaimed: any worker may take it.
			if _, err := r.Claim("torn", "w2", ttl); err != nil {
				t.Fatalf("claim of torn key after recovery: %v", err)
			}
		})
	}
}

// TestSharedPeerHealsTornTail: worker a dies mid-append; worker b's next
// mutation terminates the torn line under the flock and proceeds — no
// restart of a required.
func TestSharedPeerHealsTornTail(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir, Options{Shared: true})
	b := mustOpen(t, dir, Options{Shared: true})
	putN(t, a, 2)
	a.failAfterBytes(32)
	if _, err := a.Claim("cell", "wa", ttl); !errors.Is(err, errCrashInjected) {
		t.Fatalf("injected claim: %v, want errCrashInjected", err)
	}

	// b heals the tear and takes the cell.
	if _, err := b.Claim("cell", "wb", ttl); err != nil {
		t.Fatalf("b claim over torn tail: %v", err)
	}
	if ok, err := b.PutResult("cell", specJSON(5), bodyJSON(5)); err != nil || !ok {
		t.Fatalf("b put: ok=%v err=%v", ok, err)
	}

	// a recovers in place: disarm the hook, refresh past its own tear.
	a.failAfterBytes(-1)
	if rec, ok, err := a.GetResult("cell"); !ok || err != nil || string(rec.Body) != string(bodyJSON(5)) {
		t.Fatalf("a after heal: ok=%v err=%v", ok, err)
	}
	if ok, err := a.PutResult("other", specJSON(6), bodyJSON(6)); err != nil || !ok {
		t.Fatalf("a put after heal: ok=%v err=%v", ok, err)
	}

	// A fresh open replays the healed log cleanly.
	a.Close()
	b.Close()
	r := mustOpen(t, dir, Options{})
	if st := r.Stats(); st.Results != 4 || st.Corrupt != 1 {
		t.Fatalf("fresh open after heal: %+v, want 4 results, 1 corrupt line", st)
	}
}

// TestClaimStress hammers Claim/Renew/Release from many goroutines over
// two shared handles — run under -race, this is the memory-safety and
// protocol-sanity gate. The invariant checked: every key ends either
// resolved (result recorded) or unclaimed, and no two workers ever hold
// one key simultaneously (tracked via an atomic owner table).
func TestClaimStress(t *testing.T) {
	dir := t.TempDir()
	handles := []*Store{
		mustOpen(t, dir, Options{Shared: true}),
		mustOpen(t, dir, Options{Shared: true}),
	}
	const keys, workers, rounds = 8, 6, 15
	var mu sync.Mutex
	owner := make(map[string]string) // live leases: key -> worker

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			me := fmt.Sprintf("w%d", w)
			s := handles[w%len(handles)]
			for r := 0; r < rounds; r++ {
				k := fmt.Sprintf("cell-%d", (w+r)%keys)
				fence, err := s.Claim(k, me, ttl)
				switch {
				case errors.Is(err, ErrClaimHeld), errors.Is(err, ErrResultExists):
					continue
				case err != nil:
					t.Error(err)
					return
				}
				mu.Lock()
				if prev, live := owner[k]; live && prev != me {
					t.Errorf("key %s leased to %s and %s simultaneously", k, prev, me)
				}
				owner[k] = me
				mu.Unlock()
				if err := s.Renew(k, me, fence, ttl); err != nil {
					t.Errorf("renew %s: %v", k, err)
				}
				mu.Lock()
				delete(owner, k)
				mu.Unlock()
				if r%3 == 0 {
					if _, err := s.PutResult(k, specJSON(r), bodyJSON(r)); err != nil {
						t.Errorf("put %s: %v", k, err)
					}
				} else if err := s.Release(k, me, fence); err != nil {
					t.Errorf("release %s: %v", k, err)
				}
			}
		}(w)
	}
	wg.Wait()

	// Fleet-wide state is consistent: each handle agrees on results, and
	// no released lease lingers.
	n := len(handles[0].Results())
	if m := len(handles[1].Results()); m != n {
		t.Errorf("handles disagree: %d vs %d results", n, m)
	}
	for _, c := range handles[0].Claims() {
		if _, ok, _ := handles[0].GetResult(c.Key); ok {
			t.Errorf("claim on resolved key survived: %+v", c)
		}
	}
}

func BenchmarkClaim(b *testing.B) {
	s, err := Open(b.TempDir(), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := fmt.Sprintf("cell-%d", i)
		fence, err := s.Claim(k, "bench", ttl)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Release(k, "bench", fence); err != nil {
			b.Fatal(err)
		}
	}
}

// failAfterBytes arms the crash-injection hook: subsequent appends write
// at most n more bytes to disk in total, then fail with errCrashInjected,
// leaving a torn tail exactly as a kill mid-append would. n < 0 disarms.
// Test-only; the hook is never armed in production paths.
func (s *Store) failAfterBytes(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashArmed = n >= 0
	s.crashAfter = n
}
