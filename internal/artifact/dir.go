package artifact

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Ext is the artifact file extension.
const Ext = ".bo3g"

// staleTmpAge is how old an orphaned temp file must be before Sweep
// removes it: young temp files may belong to a peer process mid-write.
const staleTmpAge = 10 * time.Minute

// ErrNotFound reports that the directory holds no artifact for a key.
var ErrNotFound = errors.New("artifact: not found")

// errCrashInjected is returned by the test-only crash hook.
var errCrashInjected = errors.New("artifact: injected crash")

// Dir is a directory of graph artifacts shared by a fleet of processes:
// the disk tier under the serve-time in-memory GraphCache, and the
// output target of `bo3graph build -dir`. Files are content-addressed by
// the SHA-256 of the graph-spec key, written to a unique temp file and
// renamed into place, and gated on their final whole-file checksum at
// load — so concurrent writers are idempotent (same key ⇒ same bytes)
// and readers can never observe a torn artifact.
type Dir struct {
	root     string
	maxBytes int64 // 0 = unbounded

	mu sync.Mutex // serializes eviction scans within this process

	// evictions counts files removed by the byte-bound eviction scan;
	// exported by the serve layer as a counter metric.
	evictions atomic.Int64

	// failAfterBytes, when >= 0, makes the next Store abandon the temp
	// file after writing that many bytes without renaming — the
	// crash-injection hook for torn-write tests, mirroring the
	// internal/store pattern.
	failAfterBytes int64
}

// OpenDir opens (creating if needed) an artifact directory. maxBytes > 0
// bounds the directory's total artifact size: after each write the
// least-recently-used files (by modification time) are evicted until the
// bound holds. Stale temp files from crashed writers are swept on open.
func OpenDir(root string, maxBytes int64) (*Dir, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	d := &Dir{root: root, maxBytes: maxBytes, failAfterBytes: -1}
	d.Sweep()
	return d, nil
}

// Path returns the file path an artifact for key lives at (whether or
// not it exists): root/sha256(key).bo3g.
func (d *Dir) Path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.root, hex.EncodeToString(sum[:])+Ext)
}

// Load reads, checksums, and decodes the artifact for key. It returns
// ErrNotFound when no file exists. A file that fails decoding — torn,
// bit-flipped, or recorded under a different key — is removed so the
// caller's rebuild can write a fresh one, and the decode error is
// returned. A newer-format file (ErrVersion) is NOT removed: in a
// mixed-version fleet it is a valid artifact written by an upgraded
// peer, and deleting it would make old and new binaries churn the
// shared cache against each other through a rolling upgrade.
func (d *Dir) Load(key string) (*Artifact, error) {
	path := d.Path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("artifact: %w", err)
	}
	a, err := Decode(data)
	if err == nil && a.Key != key {
		err = fmt.Errorf("artifact: file %s records key %q, expected %q", filepath.Base(path), a.Key, key)
	}
	if err != nil {
		if !errors.Is(err, ErrVersion) {
			os.Remove(path)
		}
		return nil, err
	}
	// Touch the file so mtime approximates recency-of-use and the
	// eviction scan drops cold artifacts first. Best-effort: a read-only
	// directory still serves loads.
	now := time.Now()
	_ = os.Chtimes(path, now, now)
	return a, nil
}

// Store encodes the artifact and publishes it under its key via a unique
// temp file and an atomic rename, so fleet peers reading or writing the
// same key concurrently see either nothing or a complete, checksummed
// file. It then evicts least-recently-used artifacts if the directory
// exceeds its byte bound. Returns the published path.
func (d *Dir) Store(a *Artifact) (string, error) {
	data, err := a.Encode()
	if err != nil {
		return "", err
	}
	path := d.Path(a.Key)
	tmp, err := os.CreateTemp(d.root, filepath.Base(path)+".*.tmp")
	if err != nil {
		return "", fmt.Errorf("artifact: %w", err)
	}
	if n := d.takeFailAfter(); n >= 0 {
		// Crash injection: write a prefix, keep the temp file, skip the
		// rename — exactly what a process death mid-publish leaves behind.
		if n > int64(len(data)) {
			n = int64(len(data))
		}
		tmp.Write(data[:n])
		tmp.Close()
		return "", errCrashInjected
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("artifact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("artifact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("artifact: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("artifact: %w", err)
	}
	d.evict(path)
	return path, nil
}

func (d *Dir) takeFailAfter() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := d.failAfterBytes
	d.failAfterBytes = -1
	return n
}

// Sweep removes orphaned temp files older than staleTmpAge and returns
// how many it removed. Fresh temp files are left alone — they may be a
// live peer's in-flight write.
func (d *Dir) Sweep() int {
	entries, err := os.ReadDir(d.root)
	if err != nil {
		return 0
	}
	removed := 0
	cutoff := time.Now().Add(-staleTmpAge)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		info, err := e.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		if os.Remove(filepath.Join(d.root, e.Name())) == nil {
			removed++
		}
	}
	return removed
}

// evict enforces the byte bound, removing least-recently-used artifacts
// (oldest mtime first) until the directory fits. The just-published file
// is never evicted, even if it alone exceeds the bound.
func (d *Dir) evict(keep string) {
	if d.maxBytes <= 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	entries, err := os.ReadDir(d.root)
	if err != nil {
		return
	}
	type file struct {
		path  string
		size  int64
		mtime time.Time
	}
	var files []file
	var total int64
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), Ext) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, file{filepath.Join(d.root, e.Name()), info.Size(), info.ModTime()})
		total += info.Size()
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	for _, f := range files {
		if total <= d.maxBytes {
			return
		}
		if f.path == keep {
			continue
		}
		if os.Remove(f.path) == nil {
			total -= f.size
			d.evictions.Add(1)
		}
	}
}

// Evictions returns how many artifacts the byte-bound eviction scan has
// removed over this Dir's lifetime.
func (d *Dir) Evictions() int64 { return d.evictions.Load() }

// Len returns how many artifacts the directory currently holds.
func (d *Dir) Len() int {
	entries, err := os.ReadDir(d.root)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), Ext) {
			n++
		}
	}
	return n
}
