// Command lowrankd serves fixed-precision low-rank approximations over
// HTTP: a bounded job scheduler with worker slots and 429 backpressure,
// a content-addressed result cache with singleflight deduplication, and
// a Prometheus /metrics endpoint, all on the Go standard library.
//
// Submit a named Table I workload and block for the result:
//
//	lowrankd -addr 127.0.0.1:8371 &
//	curl -s 'http://127.0.0.1:8371/v1/jobs?wait=30s' \
//	     -H 'Content-Type: application/json' \
//	     -d '{"matrix":"M3","method":"RandQB_EI","tol":1e-2,"block":16}'
//
// or upload a MatrixMarket file with the knobs in the query string:
//
//	curl -s 'http://127.0.0.1:8371/v1/jobs?method=LU_CRTP&tol=1e-2&wait=30s' \
//	     --data-binary @my.mtx
//
// Many small requests go fastest through the batch endpoint, which runs
// them as one kernel-pool submission instead of one dispatch per job:
//
//	curl -s 'http://127.0.0.1:8371/v1/batch?wait=30s' \
//	     -H 'Content-Type: application/json' \
//	     -d '{"jobs":[{"matrix":"M1","method":"RandQB_EI","tol":1e-2},
//	                  {"matrix":"M2","method":"RandQB_EI","tol":1e-2}]}'
//
// Resubmitting an identical request is answered from the cache without
// recomputing. SIGTERM/SIGINT drains gracefully: new submissions get
// 503 while queued and in-flight jobs run to completion (bounded by
// -drain-timeout).
//
// Fleet flags: -cachedir adds a disk-persistent cache tier (a restarted
// daemon serves its pre-restart keys without re-solving); -peers plus
// -self enable peer cache fill, where a shard fetches finished factors
// from the key's owner set before solving locally; -replication R > 1
// makes every fresh solve push its frame to the R-1 replica owners, so
// a SIGKILLed shard's keys stay warm on its successors (see
// internal/fleet and cmd/lowrank-gateway).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"sparselr/internal/fleet"
	"sparselr/internal/profhttp"
	"sparselr/internal/serve"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8371", "listen address (port 0 picks a free port)")
		workers      = flag.Int("workers", runtime.GOMAXPROCS(0), "worker slots solving jobs concurrently")
		queueDepth   = flag.Int("queue", 64, "bounded submission-queue capacity (full queue returns 429)")
		cacheBytes   = flag.Int64("cache-bytes", 256<<20, "result-cache byte budget (0 disables caching)")
		deadline     = flag.Duration("deadline", 0, "default per-job deadline (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs on SIGTERM")
		maxBody      = flag.Int64("max-body-bytes", 64<<20, "largest accepted upload body")
		cacheDir     = flag.String("cachedir", "", "disk cache directory (empty = memory only); shares the -cache-bytes budget")
		peers        = flag.String("peers", "", "comma-separated fleet member base URLs for peer cache fill")
		self         = flag.String("self", "", "this shard's own base URL within -peers (required with -peers)")
		peerTimeout  = flag.Duration("peer-timeout", 2*time.Second, "peer cache-fill fetch timeout")
		replication  = flag.Int("replication", 1, "owner-set size R: fresh solves replicate to R-1 successor owners (needs -peers)")
		pprofOn      = flag.Bool("pprof", false, "expose /debug/pprof profiling endpoints (off by default)")
	)
	flag.Parse()
	if *workers <= 0 || *queueDepth <= 0 || *maxBody <= 0 {
		fmt.Fprintln(os.Stderr, "lowrankd: -workers, -queue and -max-body-bytes must be positive")
		flag.Usage()
		os.Exit(2)
	}

	budget := *cacheBytes
	if budget <= 0 {
		budget = -1 // serve.Config: negative disables the cache
	}
	logf := log.New(os.Stderr, "", log.LstdFlags).Printf

	var disk *serve.DiskCache
	if *cacheDir != "" {
		diskBudget := budget
		if diskBudget < 0 {
			diskBudget = 256 << 20
		}
		var err error
		disk, err = serve.OpenDiskCache(*cacheDir, diskBudget, logf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lowrankd:", err)
			os.Exit(1)
		}
		st := disk.Stats()
		fmt.Printf("lowrankd: disk cache %s: %d entries, %dB (dropped %d corrupt)\n",
			*cacheDir, st.Entries, st.Bytes, st.Dropped)
	}

	// The metrics set is shared between the server and the peer client
	// so replication counters land on the same /metrics page.
	metrics := serve.NewMetrics()

	var peerClient *fleet.PeerClient
	var peerFill serve.PeerFillFunc
	var replicate serve.ReplicateFunc
	if *peers != "" {
		if *self == "" {
			fmt.Fprintln(os.Stderr, "lowrankd: -peers requires -self")
			os.Exit(2)
		}
		list := strings.Split(*peers, ",")
		for i := range list {
			list[i] = strings.TrimSpace(list[i])
		}
		peerClient = fleet.NewPeerClient(fleet.PeerConfig{
			Peers:   list,
			Self:    *self,
			R:       *replication,
			Timeout: *peerTimeout,
			Metrics: metrics,
			Logf:    logf,
		})
		peerFill = peerClient.Fill
		replicate = peerClient.ReplicateFunc()
	} else if *replication > 1 {
		fmt.Fprintln(os.Stderr, "lowrankd: -replication needs -peers")
		os.Exit(2)
	}

	srv := serve.NewServer(serve.Config{
		Workers:      *workers,
		QueueDepth:   *queueDepth,
		CacheBytes:   budget,
		Deadline:     *deadline,
		MaxBodyBytes: *maxBody,
		Disk:         disk,
		PeerFill:     peerFill,
		Replicate:    replicate,
		Metrics:      metrics,
	})

	// Catch SIGTERM/SIGINT before the port opens: a client that sees
	// the daemon answer may stop it at once, and the default action
	// would kill it undrained.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lowrankd:", err)
		os.Exit(1)
	}
	// The smoke test and scripts parse this line to find the bound port.
	fmt.Printf("lowrankd: listening on %s (workers=%d queue=%d cache=%dB)\n",
		ln.Addr(), *workers, *queueDepth, max64(budget, 0))

	var handler http.Handler = srv
	if *pprofOn {
		handler = profhttp.Wrap(handler)
		fmt.Println("lowrankd: /debug/pprof enabled")
	}
	hs := &http.Server{Handler: handler}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()

	select {
	case s := <-sig:
		fmt.Printf("lowrankd: %v: draining (timeout %v)\n", s, *drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "lowrankd:", err)
			hs.Close()
			os.Exit(1)
		}
		if peerClient != nil {
			peerClient.Close() // flush queued replication pushes
		}
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "lowrankd: shutdown:", err)
			os.Exit(1)
		}
		fmt.Println("lowrankd: drained cleanly")
	case err := <-done:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "lowrankd:", err)
			os.Exit(1)
		}
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
