package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"sparselr/internal/gen"
	"sparselr/internal/serve"
)

// The serve workload is a closed loop: lowrankd callers block on ?wait
// for their factors, so each client sends its next request only after
// the previous reply. Two clients, each on its own keep-alive
// connection, drive a lowrankd child with two workers and a memory-only
// cache; the host has two CPUs.
const (
	serveClients   = 2
	serveWorkers   = 2
	serveSetupReps = 25
	serveCacheMB   = 64 // lowrankd -cache-bytes, in MiB: full within the warm-up
	serveWarmupMin = 2 * time.Second
	serveWarmupMax = 20 * time.Second
	recentSpecs    = 64 // repeats draw from each client's most recent specs
	uploadN        = 240
)

// One pass deals a shuffled deck of 200 requests between the clients:
// every fresh generator combination once (6 matrices × 4 methods × 2
// tolerances = 48, 24%), 10 fresh MatrixMarket uploads (5%), 122 repeats
// of recent specs (61%) and 20 factor fetches (10%). A fixed deck keeps
// the per-pass work the same from pass to pass.
const (
	passUploads = 10
	passRepeats = 122
	passFetches = 20
)

var (
	serveLabels  = gen.Labels()
	serveMethods = []string{"RandQB_EI", "RandUBV", "LU_CRTP", "CUR"}
	serveTols    = []float64{1e-1, 1e-2}
)

const (
	kindFresh = iota
	kindUpload
	kindRepeat
	kindFetch
)

// request is one card of the deck; combo picks the generator spec of a
// fresh request.
type request struct{ kind, combo int }

func passDeck(rng *rand.Rand) []request {
	var deck []request
	for c := 0; c < len(serveLabels)*len(serveMethods)*len(serveTols); c++ {
		deck = append(deck, request{kindFresh, c})
	}
	for _, n := range []struct{ kind, count int }{{kindUpload, passUploads}, {kindRepeat, passRepeats}, {kindFetch, passFetches}} {
		for i := 0; i < n.count; i++ {
			deck = append(deck, request{kind: n.kind})
		}
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	return deck
}

// reply is the part of a POST /v1/jobs response the benchmark reads.
type reply struct {
	ID      string  `json:"id"`
	Status  string  `json:"status"`
	Outcome string  `json:"outcome"`
	SolveMS float64 `json:"solve_ms"`
	Result  *struct {
		Rank         int      `json:"rank"`
		Converged    bool     `json:"converged"`
		ErrIndicator float64  `json:"err_indicator"`
		NormA        float64  `json:"norm_a"`
		FactorNNZ    int      `json:"factor_nnz"`
		Factors      []string `json:"factors"`
	} `json:"result"`
}

// observation is one request's outcome.
type observation struct {
	class    string // cold, hit, joined, upload or fetch
	ms       float64
	solveMS  float64 // server-side solve time of a cold request
	nnz      int     // factor entries of a fresh solve
	bytes    int     // body bytes of a fetch
	errRatio float64 // indicator/(τ‖A‖_F) of a fresh solve
}

// recentSpec is a fresh generator request a client may repeat or fetch
// factors for.
type recentSpec struct {
	body          []byte
	rank          int
	indicator     float64
	jobID, factor string
}

type serveClient struct {
	id     int
	base   string
	http   *http.Client
	rng    *rand.Rand
	seed   int64 // unique solver seeds start here
	recent []recentSpec
	m      *measurement
}

func newServeClient(id int, base string, seed int64, m *measurement) *serveClient {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &serveClient{
		id: id, base: base, m: m,
		http: &http.Client{Transport: tr, Timeout: 2 * time.Minute},
		rng:  rand.New(rand.NewSource(seed*serveClients + int64(id))),
		seed: seed<<32 | int64(id)<<24,
	}
}

// run sends the client's share of a pass in order and returns its
// observations; failures are counted in the measurement.
func (c *serveClient) run(reqs []request, t *tracer, parent int) []observation {
	var out []observation
	for _, r := range reqs {
		if (r.kind == kindRepeat || r.kind == kindFetch) && len(c.recent) == 0 {
			continue // only while warming up
		}
		start := time.Now()
		obs, err := c.do(r)
		c.m.attempt()
		t.record("request", parent, c.id+1, start, time.Since(start), map[string]any{"class": obs.class})
		if err != nil {
			c.m.fail("serve client %d %s request: %v", c.id, obs.class, err)
			continue
		}
		out = append(out, obs)
	}
	return out
}

func (c *serveClient) do(r request) (observation, error) {
	switch r.kind {
	case kindFresh:
		nl, nm := len(serveLabels), len(serveMethods)
		c.seed++
		spec := serve.Spec{
			Generator: serveLabels[r.combo%nl], Scale: "small",
			Method: serveMethods[r.combo/nl%nm], Tol: serveTols[r.combo/(nl*nm)],
			BlockSize: jobBlock, Seed: c.seed,
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return observation{class: "cold"}, err
		}
		v, obs, err := c.submit("/v1/jobs?wait=2m", "application/json", body, spec.Tol)
		if err != nil {
			return obs, err
		}
		c.recent = append(c.recent, recentSpec{body, v.Result.Rank, v.Result.ErrIndicator, v.ID, v.Result.Factors[0]})
		if len(c.recent) > recentSpecs {
			c.recent = c.recent[1:]
		}
		return obs, nil
	case kindUpload:
		c.seed++
		a := gen.ShapeSpectrum(gen.Circuit(uploadN, 4, c.seed), 4, 0, 1, c.seed)
		var buf bytes.Buffer
		if err := a.WriteMatrixMarket(&buf); err != nil {
			return observation{class: "upload"}, err
		}
		q := fmt.Sprintf("/v1/jobs?method=LU_CRTP&tol=0.1&k=%d&wait=2m", jobBlock)
		_, obs, err := c.submit(q, "text/plain", buf.Bytes(), 0.1)
		obs.class = "upload"
		return obs, err
	case kindRepeat:
		rs := &c.recent[c.rng.Intn(len(c.recent))]
		v, obs, err := c.submit("/v1/jobs?wait=2m", "application/json", rs.body, 0)
		if err != nil {
			return obs, err
		}
		if v.Result.Rank != rs.rank || v.Result.ErrIndicator != rs.indicator {
			return obs, fmt.Errorf("repeat (%s) has rank/indicator %d/%v, the fresh reply had %d/%v",
				v.Outcome, v.Result.Rank, v.Result.ErrIndicator, rs.rank, rs.indicator)
		}
		rs.jobID = v.ID // the newest job id is the one the daemon still remembers
		return obs, nil
	default:
		rs := c.recent[c.rng.Intn(len(c.recent))]
		obs := observation{class: "fetch"}
		start := time.Now()
		resp, err := c.http.Get(c.base + "/v1/jobs/" + rs.jobID + "/factors/" + rs.factor + "?format=mm")
		if err != nil {
			return obs, err
		}
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		obs.ms = msSince(start)
		obs.bytes = int(n)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET factor %s: status %d", rs.factor, resp.StatusCode)
		}
		return obs, err
	}
}

// submit posts one job, waits for it, and checks the reply: 200, done,
// and a fresh solve must converge with its indicator within τ‖A‖_F (tol
// 0 skips that check, for repeats).
func (c *serveClient) submit(path, contentType string, body []byte, tol float64) (reply, observation, error) {
	var v reply
	obs := observation{class: "cold"}
	start := time.Now()
	resp, err := c.http.Post(c.base+path, contentType, bytes.NewReader(body))
	if err != nil {
		return v, obs, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	obs.ms = msSince(start)
	if err != nil {
		return v, obs, err
	}
	if resp.StatusCode != http.StatusOK {
		return v, obs, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	if err := json.Unmarshal(data, &v); err != nil {
		return v, obs, err
	}
	switch v.Outcome {
	case "cache_hit":
		obs.class = "hit"
	case "joined":
		obs.class = "joined"
	}
	if v.Status != "done" || v.Result == nil || len(v.Result.Factors) == 0 {
		return v, obs, fmt.Errorf("job %s ended %q without factors", v.ID, v.Status)
	}
	if obs.class == "cold" && tol > 0 {
		obs.solveMS, obs.nnz = v.SolveMS, v.Result.FactorNNZ
		obs.errRatio = v.Result.ErrIndicator / (tol * v.Result.NormA)
		if !v.Result.Converged || obs.errRatio > 1 {
			return v, obs, fmt.Errorf("fresh solve converged=%v with indicator %g > τ‖A‖_F", v.Result.Converged, v.Result.ErrIndicator)
		}
	}
	return v, obs, nil
}

// runServe measures the serve workload: set-up is lowrankd's start until
// /healthz answers (serveSetupReps starts, the last daemon is kept),
// then untimed warm-up passes, then whole passes until the next would
// end after cfg.seconds.
func runServe(cfg runConfig) (*measurement, error) {
	m := newMeasurement(cfg.decl)
	calib := calibrate()
	bin := filepath.Join(cfg.buildDir, "lowrankd")
	var d *daemon
	var setups []float64
	for i := 0; i < serveSetupReps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if d, err = startDaemon(bin); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer d.stop()

	clients := make([]*serveClient, serveClients)
	for i := range clients {
		clients[i] = newServeClient(i, d.base, cfg.seed, m)
		defer clients[i].http.CloseIdleConnections()
	}
	deckRNG := rand.New(rand.NewSource(cfg.seed))
	pass := func(t *tracer, parent int) ([]observation, float64) {
		deck := passDeck(deckRNG)
		shares := make([][]request, serveClients)
		for i, r := range deck {
			shares[i%serveClients] = append(shares[i%serveClients], r)
		}
		obs := make([][]observation, serveClients)
		start := time.Now()
		var wg sync.WaitGroup
		for i, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				obs[i] = c.run(shares[i], t, parent)
			}()
		}
		wg.Wait()
		wall := time.Since(start).Seconds()
		var all []observation
		for _, o := range obs {
			all = append(all, o...)
		}
		return all, wall
	}

	// Warm up until the cache has filled (its first eviction), so the
	// measured passes run against a full cache.
	warm := time.Now()
	for {
		pass(nil, 0)
		st, err := d.stats(clients[0].http)
		if err != nil {
			return nil, err
		}
		if time.Since(warm) >= serveWarmupMax ||
			time.Since(warm) >= serveWarmupMin && st.counters["lowrankd_cache_evictions_total"] > 0 {
			break
		}
	}

	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	root := t.begin("run", 0, 0, map[string]any{"workload": cfg.workload, "seed": cfg.seed})
	prev, err := d.stats(clients[0].http)
	if err != nil {
		return nil, err
	}
	var walls, traced, allocs, mallocs, gcs, pauses, factors, solves, solveSecs, hits, misses []float64
	var coldN, hitN, uploadN []float64
	var evictions, rejections, hitSum, missSum float64
	var lats []float64
	byClass := map[string][]float64{}
	var errRatio, fetchBytes, fetchN, overhead, overheadN float64
	measureStart := time.Now()
	var passWalls []float64 // traced and untraced, for the stop rule
	for p := 0; cfg.morePasses(p, measureStart, passWalls); p++ {
		tracedPass := cfg.trace && p%2 == 1
		var pt *tracer
		if tracedPass {
			pt = t
		}
		pid := pt.begin("pass", root, 0, map[string]any{"pass": p})
		obs, wall := pass(pt, pid)
		pt.end(pid)
		passWalls = append(passWalls, wall)
		cur, err := d.stats(clients[0].http)
		if err != nil {
			return nil, err
		}
		delta := cur.minus(prev)
		prev = cur
		if tracedPass {
			traced = append(traced, wall)
			continue
		}
		walls = append(walls, wall)
		allocs = append(allocs, delta.totalAlloc)
		mallocs = append(mallocs, delta.mallocs)
		gcs = append(gcs, delta.numGC)
		pauses = append(pauses, delta.pauseNs)
		solves = append(solves, delta.counters["lowrankd_solves_total"])
		solveSecs = append(solveSecs, delta.counters["lowrankd_solve_seconds_sum"])
		hits = append(hits, delta.counters["lowrankd_cache_hits_total"])
		misses = append(misses, delta.counters["lowrankd_cache_misses_total"])
		hitSum += delta.counters["lowrankd_cache_hits_total"]
		missSum += delta.counters["lowrankd_cache_misses_total"]
		evictions += delta.counters["lowrankd_cache_evictions_total"]
		rejections += delta.counters["lowrankd_queue_rejections_total"]
		var fb float64
		n := map[string]float64{}
		for _, o := range obs {
			lats = append(lats, o.ms)
			byClass[o.class] = append(byClass[o.class], o.ms)
			n[o.class]++
			fb += float64(o.nnz) * 8 / 1e6
			errRatio = max(errRatio, o.errRatio)
			if o.class == "fetch" {
				fetchBytes += float64(o.bytes)
				fetchN++
			}
			if o.class == "cold" {
				overhead += o.ms - o.solveMS
				overheadN++
			}
		}
		factors = append(factors, fb)
		coldN = append(coldN, n["cold"])
		hitN = append(hitN, n["hit"])
		uploadN = append(uploadN, n["upload"])
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	v := m.values
	v["setup_s"] = median(setups)
	v["run.pass_s"] = median(walls)
	v["run.lat_ms_p50"] = percentile(lats, 50)
	v["run.lat_ms_p90"] = percentile(lats, 90)
	v["core.solve_s"] = median(solveSecs)
	v["alloc_mb"] = median(allocs) / 1e6
	v["allocs_k"] = median(mallocs) / 1e3
	v["runtime.peak_rss_mb"] = childrenPeakRSS()
	v["factor_mb"] = median(factors)
	v["runtime.gc_cycles"] = median(gcs)
	v["runtime.gc_pause_ms"] = median(pauses) / 1e6
	v["core.err_ratio_max"] = errRatio
	v["serve.cold_n"] = median(coldN)
	v["serve.hit_n"] = median(hitN)
	v["serve.upload_n"] = median(uploadN)
	v["serve.solves"] = median(solves)
	v["serve.cache_hits"] = median(hits)
	v["serve.cache_misses"] = median(misses)
	v["serve.cache_evictions"] = evictions
	v["serve.hit_ratio"] = hitSum / max(hitSum+missSum, 1)
	v["serve.queue_rejections"] = rejections
	v["serve.fetch_kb"] = fetchBytes / max(fetchN, 1) / 1e3
	m.info("passes", float64(len(walls)), "count")
	m.info("req_per_s", float64(len(lats))/sum(walls), "1/s")
	m.info("lat_samples", float64(len(lats)), "count")
	for _, class := range []string{"cold", "hit", "joined", "upload", "fetch"} {
		m.info(class+"_ms_p50", percentile(byClass[class], 50), "ms")
		m.info(class+"_ms_p99", percentile(byClass[class], 99), "ms")
		m.info(class+"_samples", float64(len(byClass[class])), "count")
	}
	m.info("overhead_ms_mean", overhead/max(overheadN, 1), "ms")
	start := time.Now()
	keys, mats := workloadMatrices(serveMatrixKeys(), cfg.seed)
	v["gen.matrices_s"] = time.Since(start).Seconds()
	if cfg.trace {
		v["trace_overhead_frac"] = median(traced)/median(walls) - 1
	}
	return m, finishRun(cfg, m, t, root, keys, mats, calib)
}

// serveMatrixKeys are the small Table I analogs the fresh requests name.
func serveMatrixKeys() []matrixKey {
	keys := make([]matrixKey, len(serveLabels))
	for i, l := range serveLabels {
		keys[i] = matrixKey{l, gen.Small}
	}
	return keys
}

// daemon is a running lowrankd child process.
type daemon struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{} // closed when its stdout reaches EOF
	once    sync.Once
	err     error
}

// startDaemon starts lowrankd on a free loopback port and returns once
// /healthz answers 200.
func startDaemon(bin string) (*daemon, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-workers", strconv.Itoa(serveWorkers),
		"-cache-bytes", strconv.Itoa(serveCacheMB<<20), "-pprof")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start lowrankd: %w", err)
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "lowrankd: listening on "); ok {
				addr <- strings.Fields(rest)[0]
			}
		}
	}()
	deadline := time.After(30 * time.Second)
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.drained:
		d.stop()
		return nil, fmt.Errorf("lowrankd exited before listening")
	case <-deadline:
		d.stop()
		return nil, fmt.Errorf("lowrankd did not report its address")
	}
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	for {
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-deadline:
			d.stop()
			return nil, fmt.Errorf("lowrankd /healthz not ready: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
}

// stop sends SIGTERM (lowrankd drains and exits), kills the process if
// it has not exited within 10 s, and waits for it. Repeated calls return
// the first result.
func (d *daemon) stop() error {
	d.once.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.drained:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill()
			<-d.drained
		}
		if err := d.cmd.Wait(); err != nil {
			d.err = fmt.Errorf("lowrankd: %w", err)
		}
	})
	return d.err
}

// daemonStats is a snapshot of the telemetry lowrankd exposes: the Go
// runtime's MemStats (from /debug/pprof/heap?debug=1) and the /metrics
// counters, summed over their labels.
type daemonStats struct {
	totalAlloc, mallocs, numGC, pauseNs float64
	pauseRing                           []float64 // MemStats.PauseNs
	counters                            map[string]float64
}

func (d *daemon) stats(c *http.Client) (daemonStats, error) {
	s := daemonStats{counters: map[string]float64{}}
	heap, err := get(c, d.base+"/debug/pprof/heap?debug=1")
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(heap, "\n") {
		name, val, ok := strings.Cut(strings.TrimPrefix(line, "# "), " = ")
		if !ok {
			continue
		}
		switch name {
		case "TotalAlloc":
			s.totalAlloc, err = strconv.ParseFloat(val, 64)
		case "Mallocs":
			s.mallocs, err = strconv.ParseFloat(val, 64)
		case "NumGC":
			s.numGC, err = strconv.ParseFloat(val, 64)
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(val, "[]")) {
				x, perr := strconv.ParseFloat(f, 64)
				if perr != nil {
					err = perr
				}
				s.pauseRing = append(s.pauseRing, x)
			}
		}
		if err != nil {
			return s, fmt.Errorf("lowrankd heap profile %s: %w", name, err)
		}
	}
	if len(s.pauseRing) != 256 {
		return s, fmt.Errorf("lowrankd heap profile: %d PauseNs entries", len(s.pauseRing))
	}
	prom, err := get(c, d.base+"/metrics")
	if err != nil {
		return s, err
	}
	for _, line := range strings.Split(prom, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		f := strings.Fields(line)
		x, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return s, fmt.Errorf("lowrankd /metrics line %q: %w", line, err)
		}
		name, _, _ := strings.Cut(f[0], "{")
		s.counters[name] += x
	}
	return s, nil
}

// minus returns the activity between snapshot p and s. The GC pause sum
// covers the collections in between, read from the runtime's ring of
// the last 256 pauses.
func (s daemonStats) minus(p daemonStats) daemonStats {
	out := daemonStats{
		totalAlloc: s.totalAlloc - p.totalAlloc,
		mallocs:    s.mallocs - p.mallocs,
		numGC:      s.numGC - p.numGC,
		counters:   map[string]float64{},
	}
	for n := int(p.numGC) + 1; n <= int(s.numGC) && n > int(s.numGC)-256; n++ {
		out.pauseNs += s.pauseRing[(n+255)%256]
	}
	for k, x := range s.counters {
		out.counters[k] = x - p.counters[k]
	}
	return out
}

func get(c *http.Client, url string) (string, error) {
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(data), err
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }
