package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"sparselr/internal/core"
)

// DiskCache is the persistent tier of the result cache: one
// content-addressed file per spec key (the 64-hex-char SHA-256, no
// extension) under a directory, framed by EncodeApproximation and
// evicted least-recently-used against a positive byte budget (the
// memory Cache's LRU index; an evicted key's file is deleted). A daemon
// restarted with the same directory comes back warm: OpenDiskCache
// re-indexes the surviving files with their mtimes as the initial
// recency order.
//
// Writes are crash-safe: a frame is written to a same-directory temp
// file and atomically renamed over the final name, so a reader (or a
// restart) only ever sees complete frames or leftovers that fail the
// checksum. Corrupt or truncated files — a crash mid-rename, bit rot —
// are deleted and logged at open and on read; they never fail daemon
// boot and never surface as results.
type DiskCache struct {
	mu   sync.Mutex
	dir  string
	idx  lru[struct{}] // file name → file size
	logf func(format string, args ...interface{})

	writes, dropped uint64
}

// diskTmpPattern marks in-progress writes; leftovers are swept at open.
const diskTmpPattern = ".tmp-*"

// OpenDiskCache opens (creating if needed) the cache directory, sweeps
// temp-file leftovers, validates every entry's frame checksum —
// deleting and logging the corrupt ones — and evicts oldest-first until
// the surviving bytes fit the budget. logf (nil = discard) receives one
// line per recovered-from problem. The errors are a non-positive budget
// (which would evict every file) and environmental ones (directory not
// creatable/readable): cache content can never fail the open.
func OpenDiskCache(dir string, budget int64, logf func(format string, args ...interface{})) (*DiskCache, error) {
	if budget <= 0 {
		return nil, fmt.Errorf("serve: disk cache budget must be positive, got %d", budget)
	}
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: disk cache dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: disk cache dir: %w", err)
	}
	c := &DiskCache{dir: dir, logf: logf}
	c.idx = newLRU[struct{}](budget, func(key string) { os.Remove(filepath.Join(dir, key)) })
	type found struct {
		key   string
		bytes int64
		mtime int64
	}
	var ok []found
	for _, e := range entries {
		name := e.Name()
		path := filepath.Join(dir, name)
		if e.IsDir() {
			continue
		}
		if matched, _ := filepath.Match(diskTmpPattern, name); matched {
			// An interrupted Put: the rename never happened, so the entry
			// was never visible. Sweep silently-but-logged.
			os.Remove(path)
			c.logf("serve: disk cache: removed leftover temp file %s", name)
			continue
		}
		if !isCacheKey(name) {
			c.logf("serve: disk cache: ignoring foreign file %s", name)
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		if err := c.validateFile(path); err != nil {
			os.Remove(path)
			c.dropped++
			c.logf("serve: disk cache: dropped corrupt entry %s: %v", name, err)
			continue
		}
		ok = append(ok, found{key: name, bytes: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	// Oldest first, so the newest file ends most recent and the oldest
	// are the ones evicted if the survivors overflow the budget.
	sort.Slice(ok, func(i, j int) bool { return ok[i].mtime < ok[j].mtime })
	for _, f := range ok {
		if !c.idx.put(f.key, struct{}{}, f.bytes) { // larger than the whole budget
			os.Remove(filepath.Join(dir, f.key))
			c.idx.evictions++
		}
	}
	return c, nil
}

// isCacheKey reports whether name is a content-addressed entry name
// (64 lowercase hex chars, the Spec.Key format).
func isCacheKey(name string) bool {
	if len(name) != 64 {
		return false
	}
	for _, r := range name {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}

// validateFile decodes the whole frame (checksum included) without
// keeping the result; used only at open, where memory for the decode is
// transient.
func (c *DiskCache) validateFile(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	_, err = DecodeApproximation(bytes.NewReader(b))
	return err
}

// Get reads and decodes the entry for key, refreshing its recency. A
// file that fails the frame check is deleted and logged, and reports a
// miss — a poisoned entry can never surface as a result.
func (c *DiskCache) Get(key string) (*core.Approximation, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ap, ok := c.readLocked(key)
	return ap, ok
}

// ReadFrame returns the raw frame bytes for key (for the /v1/cache peer
// endpoint: no decode/re-encode on the serving side). The frame check
// still runs so a poisoned file is never shipped to a peer.
func (c *DiskCache) ReadFrame(key string) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	frame, _, ok := c.readLocked(key)
	return frame, ok
}

// readLocked performs one checked read of key, refreshing recency on
// success and dropping the entry (file included, logged) on any
// read/decode failure. Caller holds c.mu.
func (c *DiskCache) readLocked(key string) ([]byte, *core.Approximation, bool) {
	if _, ok := c.idx.get(key); !ok {
		return nil, nil, false
	}
	b, err := os.ReadFile(filepath.Join(c.dir, key))
	if err == nil {
		var ap *core.Approximation
		if ap, err = DecodeApproximation(bytes.NewReader(b)); err == nil {
			return b, ap, true
		}
	}
	// Unreadable or corrupt underneath us: drop the entry.
	os.Remove(filepath.Join(c.dir, key))
	c.idx.remove(key)
	c.dropped++
	c.logf("serve: disk cache: dropped corrupt entry %s on read: %v", key, err)
	return nil, nil, false
}

// Put persists a completed approximation under key: encode to a
// same-directory temp file, fsync-free atomic rename, then evict from
// the LRU tail until the budget holds. Entries larger than the whole
// budget are skipped. Errors are logged, not returned: a full disk must
// not fail the solve that produced the factors.
func (c *DiskCache) Put(key string, ap *core.Approximation) {
	if c == nil || ap == nil || !isCacheKey(key) {
		return
	}
	var buf bytes.Buffer
	if err := EncodeApproximation(&buf, ap); err != nil {
		c.logf("serve: disk cache: encoding %s: %v", key, err)
		return
	}
	c.storeFrame(key, buf.Bytes())
}

// PutFrame persists an already-encoded frame under key — the inbound
// half of fleet replication, where the wire format is the disk format
// and re-encoding a decoded frame would only burn CPU to produce the
// same bytes. The caller must have validated the frame (the PUT
// /v1/cache handler decodes it first); PutFrame itself only guards the
// key shape and budget.
func (c *DiskCache) PutFrame(key string, frame []byte) {
	if c == nil || len(frame) == 0 || !isCacheKey(key) {
		return
	}
	c.storeFrame(key, frame)
}

// storeFrame writes one frame via temp-file + atomic rename and
// updates the LRU index, evicting down to budget.
func (c *DiskCache) storeFrame(key string, frame []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.idx.fits(int64(len(frame))) {
		return
	}
	tmp, err := os.CreateTemp(c.dir, ".tmp-"+key[:16]+"-*")
	if err != nil {
		c.logf("serve: disk cache: temp file for %s: %v", key, err)
		return
	}
	if _, err := tmp.Write(frame); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		c.logf("serve: disk cache: writing %s: %v", key, err)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		c.logf("serve: disk cache: closing %s: %v", key, err)
		return
	}
	if err := os.Rename(tmp.Name(), filepath.Join(c.dir, key)); err != nil {
		os.Remove(tmp.Name())
		c.logf("serve: disk cache: publishing %s: %v", key, err)
		return
	}
	c.writes++
	c.idx.put(key, struct{}{}, int64(len(frame)))
}

// DiskStats is the operational snapshot of a DiskCache.
type DiskStats struct {
	Entries   int
	Bytes     int64
	Budget    int64
	Writes    uint64
	Evictions uint64
	// Dropped counts corrupt/truncated entries deleted at open or read.
	Dropped uint64
}

// Stats snapshots the cache counters.
func (c *DiskCache) Stats() DiskStats {
	if c == nil {
		return DiskStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return DiskStats{
		Entries:   len(c.idx.items),
		Bytes:     c.idx.used,
		Budget:    c.idx.budget,
		Writes:    c.writes,
		Evictions: c.idx.evictions,
		Dropped:   c.dropped,
	}
}
