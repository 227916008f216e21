package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"sparselr/internal/core"
	"sparselr/internal/mat"
	"sparselr/internal/randqb"
)

// testAp builds a small QB approximation with recognizable contents.
func testAp(seed int) *core.Approximation {
	q := mat.NewDense(4, 2)
	b := mat.NewDense(2, 3)
	for i := range q.Data {
		q.Data[i] = float64(seed) + float64(i)/10
	}
	for i := range b.Data {
		b.Data[i] = float64(seed)*2 + float64(i)/100
	}
	return &core.Approximation{
		Method:       core.RandQBEI,
		Rank:         2,
		Iters:        1,
		NormA:        float64(seed),
		ErrIndicator: 1e-3,
		Converged:    true,
		ErrHistory:   []float64{1e-1, 1e-3},
		QB:           &randqb.Result{Q: q, B: b, Rank: 2, NormA: float64(seed), Converged: true},
	}
}

func testKey(i int) string {
	return fmt.Sprintf("%064x", i+1)
}

func TestCodecRoundTrip(t *testing.T) {
	ap := testAp(7)
	var buf bytes.Buffer
	if err := EncodeApproximation(&buf, ap); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeApproximation(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != ap.Method || got.Rank != ap.Rank || !got.Converged {
		t.Fatalf("decoded header mismatch: %+v", got)
	}
	if got.QB == nil || got.QB.Q.Rows != 4 || got.QB.B.Cols != 3 {
		t.Fatalf("decoded factors mismatch: %+v", got.QB)
	}
	for i, v := range got.QB.Q.Data {
		if v != ap.QB.Q.Data[i] {
			t.Fatalf("Q[%d] = %g, want %g", i, v, ap.QB.Q.Data[i])
		}
	}
}

func TestCodecRejectsCorruption(t *testing.T) {
	ap := testAp(3)
	var buf bytes.Buffer
	if err := EncodeApproximation(&buf, ap); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Truncation at every interesting boundary.
	for _, n := range []int{0, 3, len(cacheMagic), len(cacheMagic) + 10, len(full) / 2, len(full) - 1} {
		if _, err := DecodeApproximation(bytes.NewReader(full[:n])); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", n)
		}
	}
	// A flipped payload bit must fail the checksum.
	bad := append([]byte(nil), full...)
	bad[len(bad)-1] ^= 0x40
	if _, err := DecodeApproximation(bytes.NewReader(bad)); err == nil {
		t.Fatal("bit-flipped payload decoded cleanly")
	}
	// Bad magic.
	bad = append([]byte(nil), full...)
	bad[0] = 'X'
	if _, err := DecodeApproximation(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic decoded cleanly")
	}
}

func TestDiskCachePutGetRestart(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenDiskCache(dir, 1<<20, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	k1, k2 := testKey(1), testKey(2)
	c.Put(k1, testAp(1))
	c.Put(k2, testAp(2))
	if ap, ok := c.Get(k1); !ok || ap.NormA != 1 {
		t.Fatalf("Get(k1) = %+v, %v", ap, ok)
	}
	if _, ok := c.Get(testKey(99)); ok {
		t.Fatal("Get of absent key hit")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Writes != 2 {
		t.Fatalf("stats = %+v", st)
	}

	// A fresh open over the same directory must come back warm.
	c2, err := OpenDiskCache(dir, 1<<20, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Entries != 2 || st.Dropped != 0 {
		t.Fatalf("reopened stats = %+v", st)
	}
	if ap, ok := c2.Get(k2); !ok || ap.NormA != 2 {
		t.Fatalf("warm Get(k2) = %+v, %v", ap, ok)
	}
}

func TestDiskCacheEvictsUnderBudget(t *testing.T) {
	dir := t.TempDir()
	probe, err := OpenDiskCache(dir, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	probe.Put(testKey(0), testAp(0))
	one := probe.Stats().Bytes
	if one <= 0 {
		t.Fatalf("probe entry size %d", one)
	}
	os.Remove(filepath.Join(dir, testKey(0)))

	// Budget for two entries; inserting three must evict the LRU one.
	c, err := OpenDiskCache(dir, 2*one+one/2, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(testKey(1), testAp(1))
	c.Put(testKey(2), testAp(2))
	c.Get(testKey(1)) // make key 2 the LRU entry
	c.Put(testKey(3), testAp(3))
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("stats after eviction = %+v", st)
	}
	if _, ok := c.Get(testKey(2)); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, err := os.Stat(filepath.Join(dir, testKey(2))); !os.IsNotExist(err) {
		t.Fatalf("evicted file still on disk: %v", err)
	}
	for _, i := range []int{1, 3} {
		if _, ok := c.Get(testKey(i)); !ok {
			t.Fatalf("entry %d missing after eviction", i)
		}
	}
}

// TestDiskCachePoisonedFileRecovery is the ISSUE 7 bugfix gate: a
// truncated or corrupted cache file (crash mid-rename simulation) must
// be deleted and logged at open — never fail the boot — and a file
// poisoned after open must be dropped cleanly on read.
func TestDiskCachePoisonedFileRecovery(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenDiskCache(dir, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		c.Put(testKey(i), testAp(i))
	}

	// Crash simulation: entry 1 truncated mid-write, entry 2 bit-rotted,
	// plus a leftover temp file and a foreign file.
	p1 := filepath.Join(dir, testKey(1))
	b1, _ := os.ReadFile(p1)
	os.WriteFile(p1, b1[:len(b1)/3], 0o644)
	p2 := filepath.Join(dir, testKey(2))
	b2, _ := os.ReadFile(p2)
	b2[len(b2)-4] ^= 0x20
	os.WriteFile(p2, b2, 0o644)
	os.WriteFile(filepath.Join(dir, ".tmp-deadbeef-123"), []byte("partial"), 0o644)
	os.WriteFile(filepath.Join(dir, "README"), []byte("not a cache entry"), 0o644)

	var logLines []string
	logf := func(format string, args ...interface{}) {
		logLines = append(logLines, fmt.Sprintf(format, args...))
	}
	c2, err := OpenDiskCache(dir, 1<<20, logf)
	if err != nil {
		t.Fatalf("poisoned cache dir failed open: %v", err)
	}
	st := c2.Stats()
	if st.Entries != 1 || st.Dropped != 2 {
		t.Fatalf("stats after poisoned open = %+v", st)
	}
	if ap, ok := c2.Get(testKey(3)); !ok || ap.NormA != 3 {
		t.Fatalf("healthy entry lost: %v %v", ap, ok)
	}
	for _, k := range []int{1, 2} {
		if _, ok := c2.Get(testKey(k)); ok {
			t.Fatalf("poisoned entry %d served", k)
		}
		if _, err := os.Stat(filepath.Join(dir, testKey(k))); !os.IsNotExist(err) {
			t.Fatalf("poisoned file %d not deleted: %v", k, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-deadbeef-123")); !os.IsNotExist(err) {
		t.Fatal("leftover temp file not swept")
	}
	joined := strings.Join(logLines, "\n")
	if !strings.Contains(joined, "dropped corrupt entry") || !strings.Contains(joined, "temp file") {
		t.Fatalf("recovery not logged: %q", joined)
	}

	// Poison an entry *after* open: the read path must recover too.
	p3 := filepath.Join(dir, testKey(3))
	b3, _ := os.ReadFile(p3)
	b3[len(b3)-1] ^= 0x01
	os.WriteFile(p3, b3, 0o644)
	if _, ok := c2.Get(testKey(3)); ok {
		t.Fatal("entry poisoned after open was served")
	}
	if st := c2.Stats(); st.Dropped != 3 || st.Entries != 0 {
		t.Fatalf("stats after read-path poison = %+v", st)
	}
}

// TestDiskCacheEvictionRacesReads hammers a tiny-budget cache with a
// writer that forces an eviction on nearly every Put while readers spin
// over the same key set. The contract under contention: a concurrent
// read of an evicted key is a clean miss, never a corrupt frame; every
// successful read decodes to exactly what that key last held; and the
// index, byte accounting, and directory agree once the dust settles.
// Run under -race (verify.sh does) to also catch lock-discipline
// regressions around the shared LRU state.
func TestDiskCacheEvictionRacesReads(t *testing.T) {
	var probe bytes.Buffer
	if err := EncodeApproximation(&probe, testAp(1)); err != nil {
		t.Fatal(err)
	}
	frame := int64(probe.Len())
	// Room for two entries plus slack: with eight keys in rotation,
	// almost every Put evicts the tail out from under the readers.
	c, err := OpenDiskCache(t.TempDir(), frame*2+frame/2, t.Logf)
	if err != nil {
		t.Fatal(err)
	}

	const keys = 8
	const writes = 400
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := i % keys
				// Each key only ever holds testAp(k+1), so any hit is
				// fully checkable.
				if ap, ok := c.Get(testKey(k)); ok && ap.NormA != float64(k+1) {
					t.Errorf("Get(%s) decoded NormA=%g, want %d", testKey(k)[:8], ap.NormA, k+1)
					return
				}
				if fr, ok := c.ReadFrame(testKey(k)); ok {
					ap, err := DecodeApproximation(bytes.NewReader(fr))
					if err != nil || ap.NormA != float64(k+1) {
						t.Errorf("ReadFrame(%s) frame invalid: %v", testKey(k)[:8], err)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < writes; i++ {
		k := i % keys
		c.Put(testKey(k), testAp(k+1))
	}
	close(stop)
	wg.Wait()

	st := c.Stats()
	if st.Dropped != 0 {
		t.Fatalf("evictions surfaced as corruption: %d entries dropped", st.Dropped)
	}
	if st.Evictions == 0 {
		t.Fatal("no evictions happened: the budget is too loose for this test to mean anything")
	}
	if st.Bytes > st.Budget {
		t.Fatalf("resident bytes %d exceed budget %d after settle", st.Bytes, st.Budget)
	}
	c.mu.Lock()
	resident := c.idx.keys()
	c.mu.Unlock()
	if got := len(resident); got != st.Entries {
		t.Fatalf("index order holds %d keys, stats say %d entries", got, st.Entries)
	}
	// Directory and index agree: evicted files are gone, resident files
	// all indexed, no temp leftovers.
	files, err := os.ReadDir(c.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != st.Entries {
		t.Fatalf("directory holds %d files, index %d entries", len(files), st.Entries)
	}
	for _, k := range resident {
		if ap, ok := c.Get(k); !ok || ap == nil {
			t.Fatalf("resident key %s unreadable after settle", k[:8])
		}
	}
}

// TestOpenDiskCacheRejectsNonPositiveBudget: a budget ≤ 0 is an error,
// not an unbounded tier and not a reason to evict every file at open.
func TestOpenDiskCacheRejectsNonPositiveBudget(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenDiskCache(dir, 1<<20, nil)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(testKey(1), testAp(1))
	for _, budget := range []int64{0, -1} {
		if _, err := OpenDiskCache(dir, budget, nil); err == nil {
			t.Fatalf("budget %d: open succeeded", budget)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, testKey(1))); err != nil {
		t.Fatalf("entry gone after the refused opens: %v", err)
	}
}
