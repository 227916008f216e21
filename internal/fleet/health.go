package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// HealthConfig tunes the prober. Zero values get defaults.
type HealthConfig struct {
	// Interval between probes of a healthy backend (0 = 2s).
	Interval time.Duration
	// Timeout per probe request (0 = 1s).
	Timeout time.Duration
	// FailThreshold is the consecutive-failure count that evicts a
	// backend from the ring (0 = 2).
	FailThreshold int
	// MaxBackoff caps the probe backoff for an evicted backend
	// (0 = 30s). Backoff doubles from Interval per failed probe.
	MaxBackoff time.Duration
	// Jitter spreads each probe tick uniformly over
	// Interval × [1-Jitter, 1+Jitter], so multiple gateway instances
	// started together drift apart instead of synchronizing their
	// probes — a thundering herd of simultaneous /healthz hits is the
	// last thing a just-restarted shard needs. 0 = 0.1; negative
	// disables jitter (fixed Interval, for deterministic tests).
	Jitter float64
	// Probe overrides the HTTP health probe (tests inject outcomes).
	// nil = GET {backend}/healthz, healthy on 200.
	Probe func(ctx context.Context, backend string) error
	// Logf receives eviction/readmission lines (nil = silent).
	Logf func(format string, args ...interface{})
	// OnChange, when set, is called after every eviction or
	// readmission with the backend and its new health state.
	OnChange func(backend string, healthy bool)
}

// backendState tracks one backend's probe history.
type backendState struct {
	healthy   bool
	fails     int // consecutive probe/forward failures
	backoff   time.Duration
	nextProbe time.Time // evicted backends probe on a backoff schedule
}

// Health drives periodic health probes over a fixed backend set and
// maintains ring membership: FailThreshold consecutive failures evict
// a backend (its arcs redistribute to survivors); a single successful
// probe readmits it. Forwarding errors reported by the gateway via
// ReportFailure count toward the same threshold, so a dead backend is
// evicted after at most FailThreshold in-flight requests even between
// probe ticks.
type Health struct {
	cfg      HealthConfig
	ring     *Ring
	backends []string

	mu     sync.Mutex
	states map[string]*backendState

	stop chan struct{}
	done chan struct{}
}

// NewHealth builds the prober over ring for the given backends. All
// backends start healthy (and in the ring); the first probe pass
// corrects that within one interval. Call Start to begin probing.
func NewHealth(ring *Ring, backends []string, cfg HealthConfig) *Health {
	if cfg.Interval <= 0 {
		cfg.Interval = 2 * time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = time.Second
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 2
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 30 * time.Second
	}
	if cfg.Jitter == 0 {
		cfg.Jitter = 0.1
	} else if cfg.Jitter < 0 {
		cfg.Jitter = 0
	}
	if cfg.Probe == nil {
		cfg.Probe = httpProbe
	}
	h := &Health{
		cfg:      cfg,
		ring:     ring,
		backends: append([]string(nil), backends...),
		states:   map[string]*backendState{},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, b := range h.backends {
		h.states[b] = &backendState{healthy: true, backoff: cfg.Interval}
		ring.Add(b)
	}
	return h
}

// httpProbe is the production probe: GET {backend}/healthz, healthy
// only on 200 (a draining lowrankd answers 503 and is taken out of
// rotation before it stops accepting work).
func httpProbe(ctx context.Context, backend string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, backend+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fleet: %s /healthz = %d", backend, resp.StatusCode)
	}
	return nil
}

// Start launches the probe loop; Stop ends it.
func (h *Health) Start() {
	go h.loop()
}

// Stop terminates the probe loop and waits for it to exit.
func (h *Health) Stop() {
	close(h.stop)
	<-h.done
}

func (h *Health) loop() {
	defer close(h.done)
	h.probeAll() // immediate first pass so a dead backend never serves
	timer := time.NewTimer(h.jitteredInterval())
	defer timer.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-timer.C:
			h.probeAll()
			timer.Reset(h.jitteredInterval())
		}
	}
}

// jitteredInterval draws the next probe delay from
// Interval × [1-Jitter, 1+Jitter].
func (h *Health) jitteredInterval() time.Duration {
	if h.cfg.Jitter <= 0 {
		return h.cfg.Interval
	}
	f := 1 + h.cfg.Jitter*(2*rand.Float64()-1)
	return time.Duration(float64(h.cfg.Interval) * f)
}

// probeAll probes every due backend once, concurrently.
func (h *Health) probeAll() {
	now := time.Now()
	var wg sync.WaitGroup
	for _, b := range h.backends {
		h.mu.Lock()
		st := h.states[b]
		due := st.healthy || now.After(st.nextProbe)
		h.mu.Unlock()
		if !due {
			continue // evicted and still backing off
		}
		wg.Add(1)
		go func(b string) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), h.cfg.Timeout)
			err := h.cfg.Probe(ctx, b)
			cancel()
			if err != nil {
				h.noteFailure(b, err)
			} else {
				h.noteSuccess(b)
			}
		}(b)
	}
	wg.Wait()
}

// ReportFailure lets the gateway count a forwarding error (dial
// failure, timeout) toward eviction without waiting for a probe tick.
func (h *Health) ReportFailure(backend string, err error) {
	h.noteFailure(backend, err)
}

func (h *Health) noteFailure(backend string, err error) {
	h.mu.Lock()
	st, ok := h.states[backend]
	if !ok {
		h.mu.Unlock()
		return
	}
	st.fails++
	evict := st.healthy && st.fails >= h.cfg.FailThreshold
	if evict {
		st.healthy = false
		st.backoff = h.cfg.Interval
	}
	if !st.healthy {
		// Exponential backoff between probes while down.
		st.nextProbe = time.Now().Add(st.backoff)
		st.backoff *= 2
		if st.backoff > h.cfg.MaxBackoff {
			st.backoff = h.cfg.MaxBackoff
		}
	}
	h.mu.Unlock()
	if evict {
		h.ring.Remove(backend)
		h.logf("fleet: evicted %s after %d consecutive failures (%v)", backend, h.cfg.FailThreshold, err)
		if h.cfg.OnChange != nil {
			h.cfg.OnChange(backend, false)
		}
	}
}

func (h *Health) noteSuccess(backend string) {
	h.mu.Lock()
	st, ok := h.states[backend]
	if !ok {
		h.mu.Unlock()
		return
	}
	st.fails = 0
	readmit := !st.healthy
	st.healthy = true
	st.backoff = h.cfg.Interval
	h.mu.Unlock()
	if readmit {
		h.ring.Add(backend)
		h.logf("fleet: readmitted %s", backend)
		if h.cfg.OnChange != nil {
			h.cfg.OnChange(backend, true)
		}
	}
}

// Snapshot returns backend → healthy for metrics and /healthz.
func (h *Health) Snapshot() map[string]bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]bool, len(h.states))
	for b, st := range h.states {
		out[b] = st.healthy
	}
	return out
}

func (h *Health) logf(format string, args ...interface{}) {
	if h.cfg.Logf != nil {
		h.cfg.Logf(format, args...)
	}
}
