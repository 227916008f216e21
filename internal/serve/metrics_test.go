package serve

import (
	"bytes"
	"os"
	"runtime"
	"testing"
	"time"
)

// recordEverySeries drives every lowrankd_ family through a fixed
// event sequence.
func recordEverySeries(m *Metrics) {
	for i := 0; i < 3; i++ {
		m.CacheHits.Inc()
	}
	m.SingleflightHits.Inc()
	m.SingleflightHits.Inc()
	for i := 0; i < 4; i++ {
		m.CacheMisses.Inc()
	}
	m.DiskCacheHits.Inc()
	m.PeerFillHits.Inc()
	m.PeerFillHits.Inc()
	m.PeerFillMisses.Inc()
	m.PeerFillReplicaHits.Inc()
	m.ReplicaStores.Inc()
	m.ReplicaStores.Inc()
	m.ReplicaStoreRejects.Inc()
	for i := 0; i < 3; i++ {
		m.ReplicationPushes.Inc()
	}
	m.ReplicationPushFailures.Inc()
	for i := 0; i < 3; i++ {
		m.ReplicationPending.Inc()
	}
	m.ReplicationDropped.Inc()
	m.ReplicationSettled(1500 * time.Millisecond)
	m.ReplicationSettled(250 * time.Millisecond)
	m.QueueRejections.Inc()
	m.QueueRejections.Inc()
	m.DrainRejections.Inc()
	m.Batches.Inc()
	m.BatchExecuted(3)
	for i := 0; i < 4; i++ {
		m.Jobs.Inc(string(StatusDone))
	}
	m.Jobs.Inc(string(StatusFailed))
	m.Jobs.Inc(string(StatusCanceled))
	m.SolveDone("RandQB_EI", 3*time.Millisecond, 0.5)
	m.SolveDone("RandQB_EI", 1200*time.Millisecond, 0.25)
	m.SolveDone("LU_CRTP", 20*time.Millisecond, 0)
	m.SolveDone("TSVD", 30*time.Second, 0)
	for _, c := range []int{200, 200, 200, 200, 200, 404, 429, 429, 503} {
		m.HTTPRequests.IncInt(c)
	}
}

// TestWritePromGolden pins the lowrankd /metrics page byte for byte,
// with every family recorded and with none.
func TestWritePromGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	full := NewMetrics()
	recordEverySeries(full)
	for _, tc := range []struct {
		golden string
		m      *Metrics
		g      Gauges
	}{
		{"testdata/metrics_empty.prom", NewMetrics(), Gauges{}},
		{"testdata/metrics_full.prom", full, Gauges{
			QueueDepth: 2, QueueCapacity: 64, Workers: 4, Inflight: 1, Draining: true,
			CacheEntries: 7, CacheBytes: 12345678, CacheBudget: 1 << 30, CacheEvictions: 5,
			Disk:         DiskStats{Entries: 3, Bytes: 4567890, Budget: 1 << 31, Writes: 9, Evictions: 2, Dropped: 1},
			ResumeStores: 1,
		}},
	} {
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := tc.m.WriteProm(&got, tc.g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s: page differs from the golden:\n%s", tc.golden, got.Bytes())
		}
	}
}
