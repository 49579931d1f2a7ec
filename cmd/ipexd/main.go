// Command ipexd is the long-lived simulation service: NVP simulations over
// HTTP, backed by a content-addressed result cache. Identical requests
// dedupe to one simulation — concurrent ones coalesce in flight, repeated
// ones are cache hits served byte-identical to the fresh result — because
// every request is keyed by the same content identity the sweep journal
// uses (internal/experiments.CellIdentity: everything that determines the
// result, and nothing else).
//
//	ipexd -listen :8375 -cache-dir /var/cache/ipexd
//
//	curl -s -X POST localhost:8375/v1/run \
//	    -d '{"app":"fft","scale":0.05,"config":{"IPEXInst":true,"IPEXData":true}}'
//
// The body is the JSON of internal/experiments.CellIdentity, whose Config is
// an nvp.Config decoded directly: every field but the five tagged json:"-"
// (prefetcher factories, observers, the fast-path switch), which are
// rejected as unknown. Omitted fields keep their defaults (nvp.DefaultConfig,
// scale 1, RFHome trace seed 1).
//
// Endpoints: POST /v1/run (simulate or serve cached), GET /v1/result/<key>
// (cache probe, no simulation), /metrics (Prometheus text), /healthz (200
// while serving, 503 once draining). Responses
// carry X-Ipex-Key (the cell key), X-Ipex-Cache (hit, hit-disk, miss, or
// coalesced), and X-Ipex-Sha256 (body checksum, verified by fleet clients).
//
// SIGINT/SIGTERM drain gracefully: the listener closes, in-flight requests
// (and their simulations) finish, the worker pool exits, and the process
// returns 0. A second signal kills.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"ipex/cmd/internal/httpd"
	"ipex/internal/harness"
	"ipex/internal/remote"
	"ipex/internal/resultstore"
	"ipex/internal/trace"
)

func main() {
	var (
		listenAddr   = flag.String("listen", ":8375", "address to serve on")
		cacheDir     = flag.String("cache-dir", "", "directory of the result cache's disk tier, one append-only log (empty = in-memory only; results do not survive restarts)")
		cacheEntries = flag.Int("cache-entries", 4096, "in-memory result-cache capacity (bodies); evicted entries remain on the disk tier")
		cacheMaxB    = flag.Int64("cache-max-bytes", 0, "disk-tier byte budget, enforced once at startup by dropping the oldest lines of the log (0 = unbounded)")
		workers      = flag.Int("workers", 0, "simulation worker pool size (0 = NumCPU)")
		queueDepth   = flag.Int("queue", 64, "bounded simulation queue depth; a full queue answers 429 + Retry-After")
		maxScale     = flag.Float64("max-scale", 1.0, "largest accepted workload scale (0 = unbounded)")
		cellBudget   = flag.Uint64("cell-budget", 0, "deterministic per-run deadline in simulated cycles: clamps each request's MaxCycles (0 = off)")
		maxRetries   = flag.Int("max-retries", 1, "re-run a simulation up to N times after a transient failure before answering 500")
		backoff      = flag.Duration("retry-backoff", 100*time.Millisecond, "base delay of the deterministic exponential backoff between retries")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long a graceful drain waits for in-flight requests before force-closing")
	)
	flag.Parse()

	if *queueDepth < 1 {
		fmt.Fprintf(os.Stderr, "ipexd: -queue must be >= 1, got %d\n", *queueDepth)
		os.Exit(1)
	}
	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "ipexd: -workers must be >= 0, got %d\n", *workers)
		os.Exit(1)
	}
	if *maxRetries < 0 {
		fmt.Fprintf(os.Stderr, "ipexd: -max-retries must be >= 0, got %d\n", *maxRetries)
		os.Exit(1)
	}
	if *maxScale < 0 {
		fmt.Fprintf(os.Stderr, "ipexd: -max-scale must be >= 0, got %g\n", *maxScale)
		os.Exit(1)
	}
	if *cacheEntries < 1 {
		fmt.Fprintf(os.Stderr, "ipexd: -cache-entries must be >= 1, got %d\n", *cacheEntries)
		os.Exit(1)
	}
	if *cacheMaxB < 0 {
		fmt.Fprintf(os.Stderr, "ipexd: -cache-max-bytes must be >= 0, got %d\n", *cacheMaxB)
		os.Exit(1)
	}
	nWorkers := *workers
	if nWorkers == 0 {
		nWorkers = runtime.NumCPU()
	}

	reg := trace.NewRegistry()
	store, err := resultstore.New(*cacheDir, *cacheEntries, reg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipexd: %v\n", err)
		os.Exit(1)
	}
	if *cacheMaxB > 0 {
		evicted, freed, err := store.EvictDiskOver(*cacheMaxB)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ipexd: cache eviction: %v\n", err)
			os.Exit(1)
		}
		if freed > 0 {
			fmt.Fprintf(os.Stderr, "ipexd: disk cache over %d bytes; evicted %d oldest result(s) (%d bytes)\n",
				*cacheMaxB, evicted, freed)
		}
	}
	// One monotonic clock feeds every latency histogram in the process:
	// per-endpoint request spans, store compute/disk-read spans, and the
	// harness lifecycle spans. A service's metrics are live telemetry, so
	// unlike the sweep commands there is no deterministic-dump mode to
	// protect here.
	clock := trace.NewWallClock()
	store.SetClock(clock)
	sup := &harness.Supervisor{
		MaxRetries:  *maxRetries,
		BackoffBase: *backoff,
		// A panicking simulation must surface as a 500, never as a zero
		// result a client (or the cache) could mistake for one.
		PropagatePanics: true,
		Obs:             harness.NewObs(clock, reg),
	}
	srv := newServer(store, reg, sup, clock, remote.Limits{MaxScale: *maxScale, CellBudget: *cellBudget}, nWorkers, *queueDepth)

	ln, err := net.Listen("tcp", *listenAddr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ipexd: -listen: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "ipexd listening on http://%s (workers=%d queue=%d cache=%d entries, disk=%s)\n",
		ln.Addr(), nWorkers, *queueDepth, *cacheEntries, diskLabel(*cacheDir))

	httpSrv := httpd.New(srv.mux())
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigCtx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "ipexd: %v\n", err)
		os.Exit(1)
	case <-sigCtx.Done():
	}
	// Restore default signal disposition so an impatient second ^C
	// terminates immediately, then drain: listener closed, in-flight
	// requests finish (bounded by -drain-timeout), worker pool exits.
	stopSignals()
	fmt.Fprintln(os.Stderr, "ipexd: interrupt received; draining in-flight requests (interrupt again to kill)")
	// Fail /healthz first so fleet clients stop routing new cells here while
	// the listener finishes its in-flight requests.
	srv.beginDrain()
	if err := httpd.Shutdown(httpSrv, *drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "ipexd: drain: %v\n", err)
	}
	if err := srv.close(); err != nil {
		fmt.Fprintf(os.Stderr, "ipexd: closing the result cache: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "ipexd: drained")
}

func diskLabel(dir string) string {
	if dir == "" {
		return "off"
	}
	return dir
}
