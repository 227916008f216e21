package fleet

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sparselr/internal/core"
	"sparselr/internal/serve"
)

func replicaAp(norm float64) *core.Approximation {
	return &core.Approximation{Method: core.RandQBEI, Rank: 1, Converged: true, NormA: norm}
}

func encodeFrame(t *testing.T, ap *core.Approximation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := serve.EncodeApproximation(&buf, ap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// promValue scrapes one un-labeled series out of a serve metrics set.
func promValue(m *serve.Metrics, series string) string {
	var buf bytes.Buffer
	m.WriteProm(&buf, serve.Gauges{})
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, series+" ") {
			return strings.TrimPrefix(line, series+" ")
		}
	}
	return ""
}

// replicationCounts reads (pushes, failures, pending) off a serve
// metrics set.
func replicationCounts(m *serve.Metrics) (pushes, fails, pending float64) {
	return m.ReplicationPushes.Load(), m.ReplicationPushFailures.Load(), m.ReplicationPending.Load()
}

// frameSink records PUT /v1/cache bodies by key and serves nothing.
type frameSink struct {
	ts *httptest.Server
	mu sync.Mutex
	m  map[string][]byte
}

func newFrameSink(t *testing.T) *frameSink {
	t.Helper()
	s := &frameSink{m: map[string][]byte{}}
	s.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/v1/cache/") {
			body, _ := io.ReadAll(r.Body)
			s.mu.Lock()
			s.m[strings.TrimPrefix(r.URL.Path, "/v1/cache/")] = body
			s.mu.Unlock()
			w.WriteHeader(http.StatusNoContent)
			return
		}
		http.NotFound(w, r)
	}))
	t.Cleanup(s.ts.Close)
	return s
}

func (s *frameSink) frame(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[key]
	return b, ok
}

func (s *frameSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// TestPeerClientReplicaFill: with the key's primary owner dead, Fill
// walks to the second owner-set member and the hit is counted on the
// replica tier; a primary-served fill leaves that counter alone. The
// key is picked first and its primary killed afterward, so the test
// holds for any ring layout the ephemeral ports produce.
func TestPeerClientReplicaFill(t *testing.T) {
	frame := encodeFrame(t, replicaAp(5))
	serveFrame := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(frame)
	})
	s1 := httptest.NewServer(serveFrame)
	defer s1.Close()
	s2 := httptest.NewServer(serveFrame)
	defer s2.Close()

	metrics := serve.NewMetrics()
	pc := NewPeerClient(PeerConfig{
		Peers:   []string{s1.URL, s2.URL},
		Self:    "http://self.invalid:1",
		R:       2,
		Timeout: time.Second,
		Metrics: metrics,
		Logf:    t.Logf,
	})
	defer pc.Close()

	key := fmt.Sprintf("%064x", 42)

	// Both owners alive: the fill is primary-served, not a replica hit.
	ap, ok := pc.Fill(key)
	if !ok || ap.NormA != 5 {
		t.Fatalf("Fill via primary = %v %v, want the frame", ap, ok)
	}
	if got := promValue(metrics, "lowrankd_peer_fill_replica_hits_total"); got != "0" {
		t.Fatalf("replica hits = %s after primary fill, want 0", got)
	}

	// Kill the key's primary: the walk must land on the replica owner.
	if pc.ring.OwnerSet(key, 2)[0] == s1.URL {
		s1.Close()
	} else {
		s2.Close()
	}
	ap, ok = pc.Fill(key)
	if !ok || ap.NormA != 5 {
		t.Fatalf("Fill via replica = %v %v, want the frame", ap, ok)
	}
	if got := promValue(metrics, "lowrankd_peer_fill_replica_hits_total"); got != "1" {
		t.Fatalf("replica hits = %s, want 1", got)
	}
}

// TestPeerClientReplicatePush: a fresh solve on an owner pushes the
// frame to the other owner-set member — and only to it — with the
// queue settling back to zero pending.
func TestPeerClientReplicatePush(t *testing.T) {
	other := newFrameSink(t)
	selfSink := newFrameSink(t) // must stay empty: never push to self

	metrics := serve.NewMetrics()
	pc := NewPeerClient(PeerConfig{
		Peers:   []string{selfSink.ts.URL, other.ts.URL},
		Self:    selfSink.ts.URL,
		R:       2,
		Timeout: time.Second,
		Metrics: metrics,
		Logf:    t.Logf,
	})

	key := fmt.Sprintf("%064x", 42)
	ap := replicaAp(3)
	pc.Replicate(key, ap)

	deadline := time.Now().Add(5 * time.Second)
	for {
		pushes, fails, pending := replicationCounts(metrics)
		if pushes == 1 && pending == 0 {
			if fails != 0 {
				t.Fatalf("replication fails = %v", fails)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication never settled: pushes=%v fails=%v pending=%v", pushes, fails, pending)
		}
		time.Sleep(time.Millisecond)
	}
	got, ok := other.frame(key)
	if !ok {
		t.Fatal("replica owner never received the frame")
	}
	if !bytes.Equal(got, encodeFrame(t, ap)) {
		t.Fatal("replicated frame differs from the encoded solve")
	}
	if selfSink.count() != 0 {
		t.Fatal("replication pushed to self")
	}
	pc.Close()
	pc.Close() // idempotent
}

// TestPeerClientReplicateOutsideOwnerSet: a spillover shard that solved
// a key it does not own pushes the frame to the full owner set.
func TestPeerClientReplicateOutsideOwnerSet(t *testing.T) {
	a, b := newFrameSink(t), newFrameSink(t)
	metrics := serve.NewMetrics()
	pc := NewPeerClient(PeerConfig{
		Peers:   []string{a.ts.URL, b.ts.URL},
		Self:    "http://outsider.invalid:1",
		R:       2,
		Timeout: time.Second,
		Metrics: metrics,
		Logf:    t.Logf,
	})

	key := fmt.Sprintf("%064x", 7)
	pc.Replicate(key, replicaAp(1))
	// Close drains the queue, so both PUTs have landed when it returns.
	pc.Close()

	if _, ok := a.frame(key); !ok {
		t.Fatal("owner A never received the frame")
	}
	if _, ok := b.frame(key); !ok {
		t.Fatal("owner B never received the frame")
	}
	if pushes, fails, pending := replicationCounts(metrics); pushes != 2 || fails != 0 || pending != 0 {
		t.Fatalf("snapshot = %v/%v/%v, want 2 pushes, clean", pushes, fails, pending)
	}
	// After Close, further Replicate calls are dropped silently.
	pc.Replicate(fmt.Sprintf("%064x", 8), replicaAp(1))
	if a.count()+b.count() != 2 {
		t.Fatal("post-Close replicate still delivered")
	}
}

// TestPeerClientReplicationOff: R=1 keeps the single-owner behavior —
// no worker, nil scheduler hook, Replicate a no-op.
func TestPeerClientReplicationOff(t *testing.T) {
	sink := newFrameSink(t)
	pc := NewPeerClient(PeerConfig{Peers: []string{sink.ts.URL}, Self: "http://self.invalid:1"})
	if pc.ReplicateFunc() != nil {
		t.Fatal("ReplicateFunc non-nil with R=1")
	}
	pc.Replicate(fmt.Sprintf("%064x", 9), replicaAp(1))
	pc.Close()
	if sink.count() != 0 {
		t.Fatal("R=1 client pushed a replica")
	}
}
