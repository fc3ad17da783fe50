package artifact

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/spec"
)

func testArtifact(t *testing.T, n int) *Artifact {
	t.Helper()
	a, err := FromSpec(spec.GraphSpec{Family: "cycle", N: n})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestDirStoreLoad(t *testing.T) {
	d, err := OpenDir(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	a := testArtifact(t, 16)
	if _, err := d.Load(a.Key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load before Store = %v, want ErrNotFound", err)
	}
	path, err := d.Store(a)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != d.Root() || !strings.HasSuffix(path, Ext) {
		t.Fatalf("stored at %q, want a %s file in %s", path, Ext, d.Root())
	}
	got, err := d.Load(a.Key)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, got.Graph, a.Graph)
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
	// Idempotent re-store: same key, same bytes, still one file.
	if _, err := d.Store(a); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 1 {
		t.Fatalf("Len after re-store = %d, want 1", d.Len())
	}
}

// TestDirCrashInjection is the torn-write drill: a writer that dies
// after a partial temp-file write (no rename) must leave the published
// namespace untouched — the next load simply misses, the rebuild path
// writes a fresh artifact, and the stale temp file is swept once old
// enough. This mirrors the internal/store torn-tail injection tests.
func TestDirCrashInjection(t *testing.T) {
	d, err := OpenDir(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	a := testArtifact(t, 32)

	d.failAfterBytes = 10 // die 10 bytes into the temp file
	if _, err := d.Store(a); !errors.Is(err, errCrashInjected) {
		t.Fatalf("Store under injection = %v, want errCrashInjected", err)
	}
	// The crash left a torn temp file but published nothing.
	tmps, _ := filepath.Glob(filepath.Join(d.Root(), "*.tmp"))
	if len(tmps) != 1 {
		t.Fatalf("found %d temp files after crash, want 1", len(tmps))
	}
	if d.Len() != 0 {
		t.Fatalf("crash published %d artifacts, want 0", d.Len())
	}
	if _, err := d.Load(a.Key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Load after crash = %v, want ErrNotFound (no partial artifact visible)", err)
	}

	// The rebuild path: a clean Store succeeds and loads back intact.
	if _, err := d.Store(a); err != nil {
		t.Fatalf("Store after crash: %v", err)
	}
	got, err := d.Load(a.Key)
	if err != nil {
		t.Fatalf("Load after rebuild: %v", err)
	}
	assertSameGraph(t, got.Graph, a.Graph)

	// Sweep ignores the young temp file (it could be a live peer's
	// write), then removes it once stale.
	if n := d.Sweep(); n != 0 {
		t.Fatalf("Sweep removed %d young temp files, want 0", n)
	}
	old := time.Now().Add(-2 * staleTmpAge)
	if err := os.Chtimes(tmps[0], old, old); err != nil {
		t.Fatal(err)
	}
	if n := d.Sweep(); n != 1 {
		t.Fatalf("Sweep removed %d stale temp files, want 1", n)
	}
	tmps, _ = filepath.Glob(filepath.Join(d.Root(), "*.tmp"))
	if len(tmps) != 0 {
		t.Fatalf("directory not clean after sweep: %v", tmps)
	}
}

// TestDirCorruptArtifactRemoved: a torn or bit-flipped published file —
// e.g. a crash mid-rename on a non-atomic filesystem, or disk rot — must
// be rejected by its checksums, deleted, and replaced by the rebuild.
func TestDirCorruptArtifactRemoved(t *testing.T) {
	d, err := OpenDir(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	a := testArtifact(t, 32)
	path, err := d.Store(a)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate: the torn-file shape.
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Load(a.Key); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("Load(torn) = %v, want a decode error", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("torn artifact was not removed")
	}
	if _, err := d.Load(a.Key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Load = %v, want ErrNotFound (directory clean)", err)
	}
	// Bit-flip inside the adjacency section.
	if _, err := d.Store(a); err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(data)
	flipped[len(flipped)-20] ^= 0x40
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Load(a.Key); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("Load(bit-flipped) = %v, want a decode error", err)
	}
	if d.Len() != 0 {
		t.Fatal("bit-flipped artifact was not removed")
	}
}

// TestDirKeyMismatchRemoved: a file renamed onto the wrong content
// address decodes fine but records the wrong key; Load must refuse and
// remove it rather than serve a different topology than asked for.
func TestDirKeyMismatchRemoved(t *testing.T) {
	d, err := OpenDir(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	a := testArtifact(t, 16)
	b := testArtifact(t, 24)
	if _, err := d.Store(a); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(d.Path(a.Key), d.Path(b.Key)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Load(b.Key); err == nil || errors.Is(err, ErrNotFound) {
		t.Fatalf("Load(mismatched) = %v, want a key-mismatch error", err)
	}
	if d.Len() != 0 {
		t.Fatal("mismatched artifact was not removed")
	}
}

// TestDirEviction: with a byte bound set, storing past it evicts the
// least-recently-used artifacts, never the one just written.
func TestDirEviction(t *testing.T) {
	a := testArtifact(t, 64)
	enc, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Budget for two artifacts of this size, not three.
	d, err := OpenDir(t.TempDir(), int64(len(enc))*5/2)
	if err != nil {
		t.Fatal(err)
	}
	arts := []*Artifact{testArtifact(t, 64), testArtifact(t, 66), testArtifact(t, 68)}
	var paths []string
	for i, art := range arts {
		p, err := d.Store(art)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
		// Separate mtimes so LRU order is unambiguous on coarse clocks.
		ts := time.Now().Add(time.Duration(i-10) * time.Second)
		if err := os.Chtimes(p, ts, ts); err != nil {
			t.Fatal(err)
		}
	}
	d.evict(paths[2])
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2 after eviction", d.Len())
	}
	if _, err := d.Load(arts[0].Key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("oldest artifact should be evicted, Load = %v", err)
	}
	if _, err := d.Load(arts[2].Key); err != nil {
		t.Fatalf("just-written artifact evicted: %v", err)
	}
}

// TestOpenDirSweepsStaleTmp: opening a directory sweeps temp files left
// by long-dead writers.
func TestOpenDirSweepsStaleTmp(t *testing.T) {
	root := t.TempDir()
	stale := filepath.Join(root, "dead.0.tmp")
	if err := os.WriteFile(stale, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * staleTmpAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(root, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stale temp file survived OpenDir")
	}
}

// TestDirVersionMismatchKept: a newer-format artifact (written by an
// upgraded fleet peer) must be reported as ErrVersion but NOT deleted —
// an old binary repeatedly deleting valid v2 files while new binaries
// rewrite them would churn the shared cache through a rolling upgrade.
func TestDirVersionMismatchKept(t *testing.T) {
	d, err := OpenDir(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	a := testArtifact(t, 16)
	path, err := d.Store(a)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Bump the version byte in place. The version check fires before any
	// checksum, so the now-stale CRCs never enter the picture.
	data[8] = 2
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Load(a.Key); !errors.Is(err, ErrVersion) {
		t.Fatalf("Load(v2 file) = %v, want ErrVersion", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("newer-format artifact was removed: %v", err)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (file kept for upgraded peers)", d.Len())
	}
}

// Root returns the directory path.
func (d *Dir) Root() string { return d.root }
