package fleet

import (
	"bytes"
	"context"
	"net/http"
	"sync"
	"time"

	"sparselr/internal/core"
	"sparselr/internal/serve"
)

// replicationQueueDepth bounds the async replication queue. Overflow
// sheds the oldest-pending work's newest sibling (the enqueue is
// dropped, counted, and logged): replication is an availability
// optimization, so a burst of solves must never block workers or grow
// memory without bound.
const replicationQueueDepth = 256

// PeerConfig configures a shard's fleet-cache client (peer fill +
// owner-set replication).
type PeerConfig struct {
	// Peers is the full fleet member list (this shard included).
	Peers []string
	// Self is this shard's own advertised base URL; never fetched from
	// or pushed to.
	Self string
	// R is the owner-set size: a key's factors live on the R distinct
	// backends of Ring.OwnerSet. R ≤ 1 keeps the PR 7 single-owner
	// behavior (no replication, single-hop fill).
	R int
	// Timeout bounds each peer request. ≤ 0 defaults to 2s — long
	// enough for big factor frames on a LAN, short enough that a dead
	// owner delays the fallback solve imperceptibly.
	Timeout time.Duration
	// Metrics receives replication/fill counters (nil = a private set).
	Metrics *serve.Metrics
	Logf    func(string, ...interface{})
}

// PeerClient implements the shard side of fleet caching. Fill walks a
// key's owner set — primary first, then the R-1 replica owners in
// failover order — so a dead primary degrades to a replica hit instead
// of a recompute. Replicate pushes a freshly solved frame to the other
// owner-set members asynchronously over PUT /v1/cache/{key}. Both are
// strictly best-effort: any failure falls back to local work, and
// because spec keys are content-addressed, a fetched or pushed frame is
// bit-identical to what a local solve would produce.
type PeerClient struct {
	ring    *Ring
	self    string
	r       int
	timeout time.Duration
	client  *http.Client
	metrics *serve.Metrics
	logf    func(string, ...interface{})

	mu     sync.Mutex
	closed bool
	queue  chan repItem
	done   chan struct{} // closed when the replication worker exits
}

// repItem is one queued replication push: a solved key, its encoded
// frame, the owner-set targets, and the solve time (for lag metrics).
type repItem struct {
	key     string
	frame   []byte
	targets []string
	solved  time.Time
}

// NewPeerClient builds the client over the fleet's member list and, if
// cfg.R > 1, starts the single replication worker goroutine (Close
// stops it and flushes the queue).
func NewPeerClient(cfg PeerConfig) *PeerClient {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...interface{}) {}
	}
	if cfg.Metrics == nil {
		cfg.Metrics = serve.NewMetrics()
	}
	if cfg.R < 1 {
		cfg.R = 1
	}
	ring := NewRing(0)
	for _, p := range cfg.Peers {
		ring.Add(p)
	}
	p := &PeerClient{
		ring:    ring,
		self:    cfg.Self,
		r:       cfg.R,
		timeout: cfg.Timeout,
		client:  &http.Client{},
		metrics: cfg.Metrics,
		logf:    cfg.Logf,
	}
	if p.r > 1 {
		p.queue = make(chan repItem, replicationQueueDepth)
		p.done = make(chan struct{})
		go p.replicationWorker()
	}
	return p
}

// Fill is the serve.PeerFillFunc: walk the key's owner set, primary
// first, and return the first decodable frame.
func (p *PeerClient) Fill(key string) (*core.Approximation, bool) {
	for i, owner := range p.ring.OwnerSet(key, p.r) {
		if owner == p.self {
			continue // local tiers were already consulted
		}
		ap, ok := p.fetch(key, owner)
		if !ok {
			continue
		}
		if i > 0 {
			p.metrics.PeerFillReplicaHits.Inc()
		}
		return ap, true
	}
	return nil, false
}

// fetch is one best-effort GET /v1/cache/{key} hop.
func (p *PeerClient) fetch(key, owner string) (*core.Approximation, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), p.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, owner+"/v1/cache/"+key, nil)
	if err != nil {
		return nil, false
	}
	resp, err := p.client.Do(req)
	if err != nil {
		p.logf("fleet: peer fill %s from %s: %v", key[:8], owner, err)
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, false
	}
	ap, err := serve.DecodeApproximation(resp.Body)
	if err != nil {
		p.logf("fleet: peer fill %s from %s: bad frame: %v", key[:8], owner, err)
		return nil, false
	}
	return ap, true
}

// Replicate is the serve.ReplicateFunc: encode the fresh solve once
// and queue it for async push to the other owner-set members. The
// worker that solved may itself be outside the owner set (spillover),
// in which case the frame goes to all R owners. Never blocks: a full
// queue sheds the push (counted and logged) rather than stalling the
// solver.
func (p *PeerClient) Replicate(key string, ap *core.Approximation) {
	if p.r <= 1 || ap == nil {
		return
	}
	targets := make([]string, 0, p.r)
	for _, owner := range p.ring.OwnerSet(key, p.r) {
		if owner != p.self {
			targets = append(targets, owner)
		}
	}
	if len(targets) == 0 {
		return
	}
	var buf bytes.Buffer
	if err := serve.EncodeApproximation(&buf, ap); err != nil {
		p.logf("fleet: replicate %s: encoding: %v", key[:8], err)
		return
	}
	item := repItem{key: key, frame: buf.Bytes(), targets: targets, solved: time.Now()}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	select {
	case p.queue <- item:
		p.metrics.ReplicationPending.Inc()
	default:
		p.metrics.ReplicationDropped.Inc()
		p.logf("fleet: replicate %s: queue full, shedding push", key[:8])
	}
}

// ReplicateFunc adapts the client to the serve.Config hook (nil when
// replication is off, so serve skips the call entirely).
func (p *PeerClient) ReplicateFunc() serve.ReplicateFunc {
	if p.r <= 1 {
		return nil
	}
	return p.Replicate
}

// replicationWorker drains the queue, pushing each frame to its
// targets sequentially. One goroutine is enough: pushes are LAN PUTs
// of already-encoded bytes, and ordering per key keeps the lag metric
// meaningful.
func (p *PeerClient) replicationWorker() {
	defer close(p.done)
	for item := range p.queue {
		for _, target := range item.targets {
			if p.push(item.key, target, item.frame) {
				p.metrics.ReplicationPushes.Inc()
			} else {
				p.metrics.ReplicationPushFailures.Inc()
			}
		}
		p.metrics.ReplicationSettled(time.Since(item.solved))
	}
}

// push is one PUT /v1/cache/{key} delivery; failures are terminal for
// this push (no retry: the next solve of the key, or a peer fill, will
// repopulate the replica).
func (p *PeerClient) push(key, target string, frame []byte) bool {
	ctx, cancel := context.WithTimeout(context.Background(), p.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, target+"/v1/cache/"+key, bytes.NewReader(frame))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := p.client.Do(req)
	if err != nil {
		p.logf("fleet: replicate %s to %s: %v", key[:8], target, err)
		return false
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		p.logf("fleet: replicate %s to %s: status %d", key[:8], target, resp.StatusCode)
		return false
	}
	return true
}

// Close stops accepting replication work and blocks until the queue
// has drained — the daemon calls it after Drain so in-flight replicas
// reach their owners before exit. Idempotent; a no-op when replication
// is off.
func (p *PeerClient) Close() {
	p.mu.Lock()
	if p.closed || p.queue == nil {
		p.closed = true
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.queue)
	p.mu.Unlock()
	<-p.done
}
