// Command npserve is the long-running spec-serving daemon: one warm
// process that accepts runspec specs over HTTP and answers with typed
// Reports, so batch clients (policy-evaluation loops, sweep tooling,
// dashboards) stop paying process startup and stop recomputing
// identical grid points.
//
// Endpoints:
//
//	POST /run      one spec (JSON) → its Report, byte-identical to
//	               `npsim -spec <file> -json`
//	POST /sweep    a sweep document (or single spec) → one compact
//	               JSONL Report row per grid point, streamed as points
//	               complete, byte-identical to `npexp -spec … -json`
//	GET  /metrics  serving metrics snapshot: requests, cache
//	               hits/misses, coalesced duplicates, queue depth,
//	               in-flight runs, per-run wall-time histogram
//	GET  /healthz  liveness
//
// Identical specs are memoized by canonical-spec hash (SHA-256 over
// the canonicalized JSON): a repeated spec is served from memory, and
// concurrent duplicates coalesce onto one execution. The execution
// queue is bounded — when it is full, new work is rejected
// immediately with 429 rather than queued without limit. SIGTERM and
// SIGINT drain gracefully: in-flight and queued runs complete, their
// clients get their bytes, and the process exits 0.
//
// Usage:
//
//	npserve -addr 127.0.0.1:9070
//	npserve -addr :9070 -queue 512 -exec-workers 8 -cache 8192 -pprof
//	curl -X POST --data-binary @examples/specs/uplink200.json http://127.0.0.1:9070/run
//	curl -N -X POST --data-binary @examples/specs/delay-sweep.json http://127.0.0.1:9070/sweep
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nplus/internal/serve"
)

// readHeaderTimeout bounds how long a client may take to send its
// request headers, so a slow or stalled client cannot hold a
// connection open indefinitely.
const readHeaderTimeout = 10 * time.Second

func main() {
	addr := flag.String("addr", "127.0.0.1:9070", "listen address")
	queue := flag.Int("queue", 256, "bounded execution-queue depth; a full queue answers 429")
	execWorkers := flag.Int("exec-workers", 0, "concurrent spec executions (0 = GOMAXPROCS); each run may additionally shard internally via its spec's workers field")
	cache := flag.Int("cache", 4096, "memoized reports held before LRU eviction")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests on SIGTERM/SIGINT")
	flag.Parse()

	s := serve.New(serve.Config{QueueDepth: *queue, Workers: *execWorkers, CacheCap: *cache})
	srv := &http.Server{Addr: *addr, Handler: s.Handler(*pprofOn), ReadHeaderTimeout: readHeaderTimeout}

	// Listen before announcing, so "listening" in the log means curl
	// will connect.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "npserve: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "npserve: listening on %s (queue %d, cache %d)\n", ln.Addr(), *queue, *cache)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "npserve: %v: draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		err := srv.Shutdown(ctx) // stop accepting; wait for in-flight requests
		cancel()
		s.Close() // then drain the execution queue and stop the workers
		if err != nil {
			fmt.Fprintf(os.Stderr, "npserve: drain: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "npserve: drained")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "npserve: %v\n", err)
			os.Exit(1)
		}
	}
}
