// Command guoqd is the distributed optimization coordinator: it serves
// best-so-far exchange sessions for guoq workers on other machines, behind
// a content-addressed result cache that answers repeated submissions
// without a search.
//
// Usage:
//
//	guoqd -listen :7077 [-token secret] [-grace 5s] [-quiet]
//	      [-pprof-addr :6060] [-data-dir /var/lib/guoqd] [-sync 25ms]
//	      [-checkpoint 1m] [-cache-entries 4096] [-cache-size 256]
//	      [-quota rate[:burst]]
//
// -addr is an alias for -listen and overrides it when set.
//
// With -data-dir the coordinator is durable: exchange sessions are logged
// to a write-ahead log and periodically snapshotted under that directory
// (-checkpoint sets the snapshot interval), and a restart with the same
// -data-dir replays them — sessions keep their ε budgets and best-so-far.
// Each record reaches the operating system before its request is
// answered, so a crash of the process loses nothing; -sync sets the fsync
// batching window (-sync 0 fsyncs every append), which bounds what a power
// loss can take. The directory also spills the content-addressed result
// cache (served on POST /v1/submit), so optimized circuits survive
// restarts too. -quota rate[:burst] enables a per-token (or per-client
// host, when unauthenticated) token-bucket rate limit on /v1/ endpoints;
// rejected requests get 429 with Retry-After.
//
// With -token (or the GUOQD_TOKEN environment variable) every /v1/
// endpoint requires "Authorization: Bearer <token>"; guoq workers pass the
// same value via guoq -token. /healthz and /metrics stay open: the metrics
// endpoint serves the coordinator's registry (request counts and latency,
// exchange publications and adoptions, cache hits, live sessions, uptime)
// in Prometheus text format, so a stock Prometheus scrape config needs no
// credentials. -pprof-addr additionally serves net/http/pprof on its own
// listener for live profiling.
//
// SIGINT/SIGTERM shuts the daemon down gracefully: the listener stops
// accepting, in-flight requests get up to -grace to finish, and request
// contexts observe the shutdown (a second signal kills immediately).
//
// Benchmark sweeps need no coordinator: guoqbench -shard i/n splits a
// suite across n processes. Exchange sessions are created on demand by
// the first worker that connects. Inspect a running daemon with:
//
//	curl http://localhost:7077/v1/status
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/guoq-dev/guoq/internal/dist"
)

func main() {
	var (
		listen       = flag.String("listen", ":7077", "address to serve on")
		addr         = flag.String("addr", "", "alias for -listen; overrides it when set")
		pprofAddr    = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
		grace        = flag.Duration("grace", 5*time.Second, "drain deadline for in-flight requests on shutdown")
		quiet        = flag.Bool("quiet", false, "suppress per-request logging")
		token        = flag.String("token", os.Getenv("GUOQD_TOKEN"), "shared bearer token required on /v1/ endpoints (default $GUOQD_TOKEN; empty = open; comma-separate multiple tokens)")
		dataDir      = flag.String("data-dir", "", "durable state directory: WAL + snapshots + cache spill (empty = in-memory only)")
		cacheEntries = flag.Int("cache-entries", 4096, "result-cache capacity in entries (negative = cache disabled)")
		cacheSize    = flag.Int("cache-size", 256, "result-cache capacity in MB")
		quota        = flag.String("quota", "", "per-token rate limit as rate[:burst] requests/sec (empty = unlimited)")
		syncEvery    = flag.Duration("sync", 25*time.Millisecond, "WAL fsync batching interval with -data-dir (0 = fsync every append)")
		checkpoint   = flag.Duration("checkpoint", time.Minute, "snapshot interval with -data-dir (WAL is compacted at each checkpoint)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: guoqd [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if *addr != "" {
		*listen = *addr
	}

	logger := log.New(os.Stderr, "guoqd: ", log.LstdFlags)
	opts := dist.ServerOptions{
		Token:           *token,
		DataDir:         *dataDir,
		CacheEntries:    *cacheEntries,
		CacheBytes:      int64(*cacheSize) << 20,
		SyncEvery:       *syncEvery,
		CheckpointEvery: *checkpoint,
	}
	if *syncEvery == 0 {
		opts.SyncEvery = -1 // flag 0 means "fsync every append"
	}
	if !*quiet {
		opts.Logf = logger.Printf
	}
	if *quota != "" {
		rate, burst, err := parseQuota(*quota)
		if err != nil {
			logger.Fatal(err)
		}
		opts.QuotaRate, opts.QuotaBurst = rate, burst
	}
	srv, err := dist.OpenServer(opts)
	if err != nil {
		logger.Fatal(err)
	}
	if *token != "" {
		logger.Printf("token auth enabled on /v1/ endpoints")
	}
	if *dataDir != "" {
		logger.Printf("durable state in %s", *dataDir)
	}

	// First SIGINT/SIGTERM starts the graceful drain; restoring default
	// handling right after means a second signal kills immediately.
	ctx, stopSig := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSig()
	go func() {
		<-ctx.Done()
		stopSig()
	}()

	if *pprofAddr != "" {
		// pprof gets its own listener (default mux), never the public port:
		// profiling endpoints stay reachable only where the operator binds
		// them, regardless of -token.
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Printf("pprof: %v", err)
			}
		}()
		logger.Printf("pprof on http://%s/debug/pprof/", *pprofAddr)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Fatal(err)
	}
	logger.Printf("coordinator listening on %s", l.Addr())
	if err := srv.ServeContext(ctx, l, *grace); err != nil {
		logger.Fatal(err)
	}
	// Final checkpoint + WAL close, so the next boot replays a compact
	// snapshot instead of the whole log.
	if err := srv.Close(); err != nil {
		logger.Printf("close: %v", err)
	}
	logger.Printf("coordinator drained, shutting down")
}

// parseQuota parses the -quota flag: "rate" or "rate:burst".
func parseQuota(s string) (rate, burst float64, err error) {
	rs, bs, hasBurst := strings.Cut(s, ":")
	if rate, err = strconv.ParseFloat(rs, 64); err != nil || rate <= 0 {
		return 0, 0, fmt.Errorf("guoqd: bad -quota rate %q", rs)
	}
	if hasBurst {
		if burst, err = strconv.ParseFloat(bs, 64); err != nil || burst <= 0 {
			return 0, 0, fmt.Errorf("guoqd: bad -quota burst %q", bs)
		}
	}
	return rate, burst, nil
}
