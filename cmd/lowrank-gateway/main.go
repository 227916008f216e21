// Command lowrank-gateway fronts a fleet of lowrankd shards with a
// consistent-hash router: each submission's content-addressed spec key
// picks the owning shard, so identical requests from any client land
// on the same daemon and dedupe in its cache, while distinct keys
// spread across the fleet.
//
//	lowrankd -addr 127.0.0.1:9001 -cachedir /var/cache/lr1 &
//	lowrankd -addr 127.0.0.1:9002 -cachedir /var/cache/lr2 &
//	lowrank-gateway -addr 127.0.0.1:8370 \
//	    -backends http://127.0.0.1:9001,http://127.0.0.1:9002
//
// Clients speak the exact lowrankd API to the gateway — submit, batch,
// status, result, factors, cancel, ?wait — and never see the topology.
// The gateway probes each backend's /healthz (with jittered intervals
// so multiple gateways don't probe in lockstep), evicts a shard from
// the ring after consecutive failures (its keys reroute to the
// survivors), readmits it on recovery, spills 429/503 backpressure
// over to the next shard, rides out fleet-wide dial failures with a
// jittered-backoff retry budget, and exposes its routing counters on
// /metrics. Identical submissions route to the same shard, whose
// singleflight solves them once.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"sparselr/internal/fleet"
	"sparselr/internal/profhttp"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:8370", "listen address (port 0 picks a free port)")
		backends      = flag.String("backends", "", "comma-separated lowrankd base URLs (required)")
		replicas      = flag.Int("replicas", fleet.DefaultReplicas, "virtual nodes per backend on the hash ring")
		probeInterval = flag.Duration("probe-interval", 2*time.Second, "health-probe period per backend")
		probeTimeout  = flag.Duration("probe-timeout", time.Second, "health-probe request timeout")
		failThreshold = flag.Int("fail-threshold", 2, "consecutive failures that evict a backend from the ring")
		probeJitter   = flag.Float64("probe-jitter", 0.1, "probe-interval jitter fraction (negative disables)")
		retryBudget   = flag.Int("retry-budget", 2, "extra backoff passes over a key's candidates after every one dial-failed (negative disables)")
		retryBase     = flag.Duration("retry-base", 25*time.Millisecond, "first retry-backoff delay; doubles per pass with jitter, capped at 1s")
		maxBody       = flag.Int64("max-body-bytes", 64<<20, "largest accepted request body")
		pprofOn       = flag.Bool("pprof", false, "expose /debug/pprof profiling endpoints (off by default)")
	)
	flag.Parse()
	if *backends == "" {
		fmt.Fprintln(os.Stderr, "lowrank-gateway: -backends is required")
		flag.Usage()
		os.Exit(2)
	}
	list := strings.Split(*backends, ",")
	for i := range list {
		list[i] = strings.TrimRight(strings.TrimSpace(list[i]), "/")
	}

	logf := log.New(os.Stderr, "", log.LstdFlags).Printf
	gw, err := fleet.NewGateway(fleet.GatewayConfig{
		Backends: list,
		Replicas: *replicas,
		Health: fleet.HealthConfig{
			Interval:      *probeInterval,
			Timeout:       *probeTimeout,
			FailThreshold: *failThreshold,
			Jitter:        *probeJitter,
			Logf:          logf,
		},
		MaxBodyBytes: *maxBody,
		RetryBudget:  *retryBudget,
		RetryBase:    *retryBase,
		Logf:         logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lowrank-gateway:", err)
		os.Exit(1)
	}
	gw.Start()
	defer gw.Stop()

	// Catch SIGTERM/SIGINT before the port opens, as lowrankd does.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lowrank-gateway:", err)
		os.Exit(1)
	}
	// The smoke test and scripts parse this line to find the bound port.
	fmt.Printf("lowrank-gateway: listening on %s (backends=%d replicas=%d)\n",
		ln.Addr(), len(list), *replicas)

	var handler http.Handler = gw
	if *pprofOn {
		handler = profhttp.Wrap(handler)
		fmt.Println("lowrank-gateway: /debug/pprof enabled")
	}
	hs := &http.Server{Handler: handler}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	select {
	case s := <-sig:
		fmt.Printf("lowrank-gateway: %v: shutting down\n", s)
		hs.Close()
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "lowrank-gateway:", err)
			os.Exit(1)
		}
	}
}
