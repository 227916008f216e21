package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"sparselr/internal/fleet"
	"sparselr/internal/serve"
)

// daemon is one child process (lowrankd or lowrank-gateway) with its
// parsed base URL.
type daemon struct {
	cmd  *exec.Cmd
	base string
	rest chan []string // stdout tail after the listening line
}

var listenRe = regexp.MustCompile(`listening on (\S+) `)

// startDaemon launches bin with args and waits for its listening line.
func startDaemon(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	sc := bufio.NewScanner(stdout)
	var lines []string
	var base string
	for sc.Scan() {
		line := sc.Text()
		lines = append(lines, line)
		if m := listenRe.FindStringSubmatch(line); m != nil {
			base = "http://" + m[1]
			break
		}
	}
	if base == "" {
		t.Fatalf("%s: no listening line in output: %q", bin, lines)
	}
	rest := make(chan []string, 1)
	go func() {
		var tail []string
		for sc.Scan() {
			tail = append(tail, sc.Text())
		}
		rest <- tail
	}()
	return &daemon{cmd: cmd, base: base, rest: rest}
}

// freePort reserves an ephemeral port and releases it for a child.
func freePort(t *testing.T) int {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	return port
}

// scrape fetches /metrics and sums every sample of one series.
func scrape(t *testing.T, base, series string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("scrape %s: %v", base, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var total float64
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, series) {
			continue
		}
		rest := line[len(series):]
		if rest != "" && rest[0] != ' ' && rest[0] != '{' {
			continue // a longer series name sharing the prefix
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			continue
		}
		total += v
	}
	return total
}

// fleetSpec renders the submission body for one seed.
func fleetSpec(seed int64) string {
	return fmt.Sprintf(`{"matrix":"M3","method":"RandQB_EI","tol":1e-2,"seed":%d}`, seed)
}

// fleetKey computes the spec's content key (what the ring routes by).
func fleetKey(t *testing.T, seed int64) string {
	t.Helper()
	s := &serve.Spec{Generator: "M3", Method: "RandQB_EI", Tol: 1e-2, Seed: seed}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s.Key()
}

// submitTo posts one job and decodes the reply.
func submitTo(t *testing.T, base string, seed int64, wait string) (int, map[string]interface{}) {
	t.Helper()
	url := base + "/v1/jobs"
	if wait != "" {
		url += "?wait=" + wait
	}
	resp, err := http.Post(url, "application/json", strings.NewReader(fleetSpec(seed)))
	if err != nil {
		t.Fatalf("submit seed %d to %s: %v", seed, base, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var v map[string]interface{}
	json.Unmarshal(raw, &v)
	return resp.StatusCode, v
}

// TestFleetSmoke is the verify.sh fleet smoke test. It builds the real
// lowrankd and lowrank-gateway binaries and drives a two-shard fleet
// end to end:
//
//  1. a duplicate-heavy wave through the gateway solves each distinct
//     spec exactly once fleet-wide;
//  2. submitting a solved spec directly to the non-owning shard is
//     satisfied by peer cache fill, not a second solve;
//  3. SIGKILLing one shard mid-wave evicts it from the ring and its
//     keys reroute to the survivor;
//  4. SIGTERMing the survivor and restarting it over the same
//     -cachedir serves its previous keys from disk without re-solving.
//
// When BENCH_SERVE_OUT is set, gateway throughput and the peer-fill
// hit rate are merged into the JSON written by the daemon smoke test.
func TestFleetSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots three binaries")
	}
	dir := t.TempDir()
	lrd := filepath.Join(dir, "lowrankd")
	gwBin := filepath.Join(dir, "lowrank-gateway")
	for bin, pkg := range map[string]string{lrd: "../lowrankd", gwBin: "."} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}

	portA, portB := freePort(t), freePort(t)
	urlA := fmt.Sprintf("http://127.0.0.1:%d", portA)
	urlB := fmt.Sprintf("http://127.0.0.1:%d", portB)
	peers := urlA + "," + urlB
	cacheA, cacheB := filepath.Join(dir, "cacheA"), filepath.Join(dir, "cacheB")

	startShard := func(port int, cachedir, self string) *daemon {
		return startDaemon(t, lrd,
			"-addr", fmt.Sprintf("127.0.0.1:%d", port),
			"-workers", "2",
			"-cachedir", cachedir,
			"-peers", peers,
			"-self", self,
		)
	}
	shardA := startShard(portA, cacheA, urlA)
	shardB := startShard(portB, cacheB, urlB)

	gw := startDaemon(t, gwBin,
		"-addr", "127.0.0.1:0",
		"-backends", peers,
		"-probe-interval", "200ms",
		"-fail-threshold", "1",
	)

	// The test computes ownership with the same ring the fleet uses.
	ring := fleet.NewRing(0)
	ring.Add(urlA)
	ring.Add(urlB)
	// Ownership depends on the ephemeral ports, so scan seeds until the
	// wave has six specs with at least two owned by each shard.
	owners := map[string]string{} // seed key → owning URL
	var seeds, seedsA, seedsB []int64
	for s := int64(1); s <= 256 && (len(seedsA) < 2 || len(seedsB) < 2 || len(seeds) < 6); s++ {
		owner, _ := ring.Owner(fleetKey(t, s))
		if (owner == urlA && len(seedsA) >= 4) || (owner == urlB && len(seedsB) >= 4) {
			continue
		}
		owners[fleetKey(t, s)] = owner
		seeds = append(seeds, s)
		if owner == urlA {
			seedsA = append(seedsA, s)
		} else {
			seedsB = append(seedsB, s)
		}
	}
	if len(seedsA) < 2 || len(seedsB) < 2 {
		t.Fatalf("degenerate ring split: A=%v B=%v", seedsA, seedsB)
	}

	// Phase 1: duplicate-heavy wave. 6 distinct specs, 3 submissions
	// each, all through the gateway; every duplicate must dedupe on its
	// owning shard.
	for rep := 0; rep < 3; rep++ {
		for _, s := range seeds {
			code, v := submitTo(t, gw.base, s, "60s")
			if code != http.StatusOK || v["status"] != "done" {
				t.Fatalf("wave seed %d rep %d: %d %v", s, rep, code, v)
			}
		}
	}
	solvesA := scrape(t, urlA, "lowrankd_solves_total")
	solvesB := scrape(t, urlB, "lowrankd_solves_total")
	if solvesA+solvesB != float64(len(seeds)) {
		t.Fatalf("fleet-wide solves = %v+%v, want %d (exactly once)", solvesA, solvesB, len(seeds))
	}

	// Phase 2: peer cache fill. A spec owned (and solved) by A,
	// submitted directly to B, must be filled from A's cache — B's
	// worker fetches the factors instead of re-solving.
	peerSeed := seedsA[0]
	code, v := submitTo(t, urlB, peerSeed, "60s")
	if code != http.StatusOK || v["status"] != "done" {
		t.Fatalf("peer-fill submit: %d %v", code, v)
	}
	if v["cached"] != true {
		t.Fatalf("peer-filled job not marked cached: %v", v)
	}
	peerHits := scrape(t, urlB, "lowrankd_peer_fill_hits_total")
	if peerHits < 1 {
		t.Fatalf("peer fill hits = %v, want ≥ 1", peerHits)
	}
	if got := scrape(t, urlA, "lowrankd_solves_total") + scrape(t, urlB, "lowrankd_solves_total"); got != float64(len(seeds)) {
		t.Fatalf("peer fill caused a re-solve: %v", got)
	}
	peerAttempts := peerHits + scrape(t, urlB, "lowrankd_peer_fill_misses_total")
	hitRate := peerHits / peerAttempts

	// Gateway cached throughput over a fixed window (duplicates of an
	// already-solved spec; every reply comes from a shard cache).
	const window = 300 * time.Millisecond
	var reqs int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(window)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n := int64(0)
			for time.Now().Before(deadline) {
				resp, err := http.Post(gw.base+"/v1/jobs", "application/json", strings.NewReader(fleetSpec(seeds[0])))
				if err != nil {
					t.Errorf("cached request: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				n++
			}
			mu.Lock()
			reqs += n
			mu.Unlock()
		}()
	}
	wg.Wait()
	gatewayRPS := float64(reqs) / window.Seconds()
	t.Logf("gateway_rps=%.0f peer_fill_hit_rate=%.2f", gatewayRPS, hitRate)

	// Phase 3: SIGKILL shard A mid-wave. Its keys must reach B and the
	// health checker must evict A. A leaves the ring by either path: a
	// submit that dials it first reroutes (dial error → next ring node),
	// or a probe evicts it before the first submit and nothing needs
	// rerouting.
	if err := shardA.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	shardA.cmd.Wait()
	for _, s := range seedsA {
		code, v := submitTo(t, gw.base, s, "60s")
		if code != http.StatusOK || v["status"] != "done" {
			t.Fatalf("rerouted seed %d: %d %v", s, code, v)
		}
	}
	rr := scrape(t, gw.base, "lowrank_gateway_reroutes_total")
	if ev := scrape(t, gw.base, "lowrank_gateway_evictions_total"); rr+ev < 1 {
		t.Fatalf("reroutes + evictions = %v + %v, want ≥ 1", rr, ev)
	}
	// Eviction may land via the forward failure or the next probe tick.
	evDeadline := time.Now().Add(10 * time.Second)
	for scrape(t, gw.base, "lowrank_gateway_ring_size") != 1 {
		if time.Now().After(evDeadline) {
			t.Fatal("dead shard never evicted from the ring")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if ev := scrape(t, gw.base, "lowrank_gateway_evictions_total"); ev < 1 {
		t.Fatalf("evictions = %v, want ≥ 1", ev)
	}

	// Phase 4: warm restart. SIGTERM shard B (clean drain), restart it
	// over the same -cachedir: its previously solved keys must come
	// back from disk without re-solving.
	solvedByB := seedsB[0]
	if err := shardB.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var tail []string
	select {
	case tail = <-shardB.rest:
	case <-time.After(30 * time.Second):
		t.Fatal("shard B did not exit within 30s of SIGTERM")
	}
	if err := shardB.cmd.Wait(); err != nil {
		t.Fatalf("shard B exit after SIGTERM: %v", err)
	}
	if !strings.Contains(strings.Join(tail, "\n"), "drained cleanly") {
		t.Fatalf("shard B did not drain cleanly: %q", tail)
	}

	shardB2 := startShard(portB, cacheB, urlB)
	code, v = submitTo(t, shardB2.base, solvedByB, "60s")
	if code != http.StatusOK || v["status"] != "done" {
		t.Fatalf("warm-restart submit: %d %v", code, v)
	}
	if v["outcome"] != "cache_hit" || v["cached"] != true {
		t.Fatalf("warm restart did not hit the disk tier: %v", v)
	}
	if dh := scrape(t, shardB2.base, "lowrankd_disk_cache_hits_total"); dh < 1 {
		t.Fatalf("disk cache hits after restart = %v, want ≥ 1", dh)
	}
	if fresh := scrape(t, shardB2.base, "lowrankd_solves_total"); fresh != 0 {
		t.Fatalf("restarted shard re-solved %v jobs", fresh)
	}

	// Merge fleet numbers into the daemon smoke's BENCH JSON.
	if out := os.Getenv("BENCH_SERVE_OUT"); out != "" {
		bench := map[string]interface{}{}
		if raw, err := os.ReadFile(out); err == nil {
			json.Unmarshal(raw, &bench)
		}
		bench["gateway_requests_per_sec"] = round1(gatewayRPS)
		bench["peer_fill_hit_rate"] = round1(hitRate)
		raw, err := json.MarshalIndent(bench, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			t.Fatalf("writing %s: %v", out, err)
		}
	}
}

func round1(v float64) float64 {
	return float64(int64(v*10+0.5)) / 10
}
