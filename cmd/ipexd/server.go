package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"ipex/internal/experiments"
	"ipex/internal/harness"
	"ipex/internal/nvp"
	"ipex/internal/remote"
	"ipex/internal/resultstore"
	"ipex/internal/trace"
	"ipex/internal/workload"
)

var (
	// errBusy is the backpressure signal: the bounded queue is full, so the
	// request is refused (429 + Retry-After) instead of piling up.
	errBusy = errors.New("simulation queue is full; retry shortly")
	// errDraining refuses work that races the graceful shutdown.
	errDraining = errors.New("server is draining")
)

// retryAfterSecs picks the Retry-After delay for a 429: 1–4 seconds, seeded
// by the cell key so a given request always hears the same delay (replayable
// under test) while different requests spread out instead of stampeding back
// in lockstep when the queue frees up.
func retryAfterSecs(key string) string {
	h := fnv.New32a()
	io.WriteString(h, key)
	return strconv.Itoa(1 + int(h.Sum32()%4))
}

// testRunHook, when non-nil, runs at the start of every simulation on the
// worker goroutine. Tests use it to hold a worker mid-cell and observe the
// queue/backpressure behaviour deterministically; production never sets it.
var testRunHook func(app string)

// task is one queued simulation with its reply channel (buffered, so a
// worker never blocks on a departed waiter).
type task struct {
	cell harness.Cell
	done chan taskResult
}

type taskResult struct {
	res nvp.Result
	err error
}

// server is the simulation service: a content-addressed result store in
// front of a bounded worker pool. Request flow for POST /v1/run:
//
//	decode identity → cell key → store.GetOrCompute
//	  memory hit  → cached bytes               (X-Ipex-Cache: hit)
//	  disk hit    → verified bytes, promoted   (X-Ipex-Cache: hit-disk)
//	  in flight   → wait for the leader        (X-Ipex-Cache: coalesced)
//	  miss        → enqueue on the worker pool (X-Ipex-Cache: miss)
//
// The queue is bounded; a full queue refuses the request with 429 and
// Retry-After rather than queueing unboundedly — callers see backpressure,
// not latency collapse.
type server struct {
	store     *resultstore.Store
	reg       *trace.Registry
	sup       *harness.Supervisor
	workloads *workload.Store
	lim       remote.Limits
	workers   int

	queue    chan task
	qmu      sync.RWMutex
	qclosed  bool
	wg       sync.WaitGroup
	draining atomic.Bool

	inflight atomic.Int64
	requests *trace.Counter
	errs     *trace.Counter

	// clock feeds the per-endpoint latency histograms (nil = silent, for
	// tests that want deterministic scrapes).
	clock         trace.Clock
	runSeconds    *trace.Histogram
	resultSeconds *trace.Histogram
}

// newServer wires the store, registry, and supervisor together and starts
// the worker pool: `workers` goroutines, each owning one nvp.Arena so
// steady-state simulations allocate nothing, consuming the bounded queue.
func newServer(store *resultstore.Store, reg *trace.Registry, sup *harness.Supervisor, clock trace.Clock, lim remote.Limits, workers, queueDepth int) *server {
	if workers < 1 {
		workers = 1
	}
	if queueDepth < 1 {
		queueDepth = 1
	}
	s := &server{
		store:     store,
		reg:       reg,
		sup:       sup,
		workloads: workload.Shared(),
		lim:       lim,
		workers:   workers,
		queue:     make(chan task, queueDepth),
		requests:  reg.Counter("ipexd.requests"),
		errs:      reg.Counter("ipexd.errors"),

		clock:         clock,
		runSeconds:    reg.Histogram("ipexd.run_seconds", nil),
		resultSeconds: reg.Histogram("ipexd.result_seconds", nil),
	}
	for w := 0; w < workers; w++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			// One arena per worker, reused across every simulation this
			// worker runs (same discipline as harness.Pool workers).
			arena := nvp.NewArena()
			for t := range s.queue {
				res, err, _ := s.sup.RunCell(t.cell, arena)
				t.done <- taskResult{res: res, err: err}
			}
		}()
	}
	return s
}

// enqueue hands a task to the pool without ever blocking: a full queue is
// backpressure (errBusy), a closed one is the drain (errDraining). The
// read-lock makes send-vs-close race-free.
func (s *server) enqueue(t task) error {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.qclosed {
		return errDraining
	}
	select {
	case s.queue <- t:
		return nil
	default:
		return errBusy
	}
}

// beginDrain flips /healthz to 503 before the HTTP listener shuts down:
// fleet clients health-probe a server before re-admitting it through a
// half-open breaker, so a draining server announces its exit instead of
// absorbing (and 503-failing) a last wave of requests.
func (s *server) beginDrain() {
	s.draining.Store(true)
}

// close drains the worker pool (no further enqueues, queued tasks finish,
// workers exit) and then closes the result store's log. Call after the HTTP
// server has shut down (so no handler is mid-enqueue). Every result served
// was already durable, so a close error concerns no acknowledged result.
func (s *server) close() error {
	s.draining.Store(true)
	s.qmu.Lock()
	if !s.qclosed {
		s.qclosed = true
		close(s.queue)
	}
	s.qmu.Unlock()
	s.wg.Wait()
	return s.store.Close()
}

// mux builds the server's routing table.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/result/", s.handleResult)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		// A draining server must fail its health check: the answer is read
		// by fleet clients deciding whether to route new work here, and a
		// server about to close its listener is not a routable destination
		// even though this handler can still answer.
		if s.draining.Load() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		io.WriteString(w, "ok\n")
	})
	return mux
}

// fail counts and writes one error response. Every counted request ends in
// exactly one bucket — a store outcome or this error counter — so the
// /metrics sums stay exact: requests = mem_hits + disk_hits + computed +
// coalesced + errors.
func (s *server) fail(w http.ResponseWriter, code int, msg string) {
	s.errs.Inc()
	http.Error(w, msg, code)
}

// handleRun serves POST /v1/run.
func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.requests.Inc()
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	start := trace.Now(s.clock)
	defer trace.Observe(s.clock, s.runSeconds, start)

	sp, err := remote.DecodeRunRequest(r.Body, s.lim)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}
	key := sp.Cell.Key()
	body, outcome, err := s.store.GetOrCompute(key, func() ([]byte, error) {
		return s.simulate(key, sp)
	})
	if err != nil {
		switch {
		case errors.Is(err, errBusy):
			w.Header().Set("Retry-After", retryAfterSecs(key))
			s.fail(w, http.StatusTooManyRequests, err.Error())
		case errors.Is(err, errDraining):
			s.fail(w, http.StatusServiceUnavailable, err.Error())
		default:
			s.fail(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	s.serveBody(w, key, outcome, body)
}

// handleResult serves GET /v1/result/<key>: cache tiers only, never a
// simulation — a cheap existence probe for a key returned earlier.
func (s *server) handleResult(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	s.requests.Inc()
	start := trace.Now(s.clock)
	defer trace.Observe(s.clock, s.resultSeconds, start)
	key := strings.TrimPrefix(r.URL.Path, "/v1/result/")
	if key == "" || strings.ContainsAny(key, "/.") {
		s.fail(w, http.StatusBadRequest, "want /v1/result/<cell key>")
		return
	}
	body, outcome, ok := s.store.Get(key)
	if !ok {
		s.fail(w, http.StatusNotFound, "result not cached")
		return
	}
	s.serveBody(w, key, outcome, body)
}

func (s *server) serveBody(w http.ResponseWriter, key string, outcome resultstore.Outcome, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Ipex-Key", key)
	h.Set("X-Ipex-Cache", outcome.String())
	// The body checksum lets clients commit a result only after verifying it
	// arrived intact — a truncated or proxy-mangled response must be a retry
	// on their side, never a mis-filed cell.
	sum := sha256.Sum256(body)
	h.Set("X-Ipex-Sha256", hex.EncodeToString(sum[:]))
	// A response write failure means the client went away; the result is
	// cached regardless, so there is nothing to recover.
	_, _ = w.Write(body)
}

// simulate runs one cell on the worker pool and serializes its result —
// the bytes that enter the store and therefore the bytes every future hit
// serves. Only called inside the store's singleflight, so concurrent
// identical requests cost exactly one queue slot and one simulation.
func (s *server) simulate(key string, sp remote.Spec) ([]byte, error) {
	tr := experiments.Trace(sp.Source, sp.Cell.TraceSeed)
	cfg := sp.Cell.Config
	cfg.Metrics = s.reg
	t := task{
		cell: harness.Cell{
			Key:   key,
			Label: sp.Cell.App,
			Run: func(ctx context.Context, a *nvp.Arena) (nvp.Result, error) {
				if testRunHook != nil {
					testRunHook(sp.Cell.App)
				}
				// A dirty paranoid report fails transiently: worth the
				// supervisor's bounded retries, never cached either way.
				return experiments.Simulate(ctx, a, s.workloads, sp.Cell.App, sp.Cell.Scale, tr, cfg)
			},
		},
		done: make(chan taskResult, 1),
	}
	if err := s.enqueue(t); err != nil {
		return nil, err
	}
	out := <-t.done
	if out.err != nil {
		return nil, out.err
	}
	body, err := json.Marshal(out.res)
	if err != nil {
		return nil, fmt.Errorf("encoding result: %w", err)
	}
	return body, nil
}

// handleMetrics writes Prometheus text exposition 0.0.4: the server-level
// gauges first, then the shared registry (request/hit/miss/coalesced/
// evicted counters plus every simulator counter accumulated so far).
func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	gauge("ipex_ipexd_inflight", "requests currently being served", float64(s.inflight.Load()))
	gauge("ipex_ipexd_queue_depth", "simulations waiting for a worker", float64(len(s.queue)))
	gauge("ipex_ipexd_queue_capacity", "bounded queue size (backpressure threshold)", float64(cap(s.queue)))
	gauge("ipex_ipexd_workers", "simulation worker pool size", float64(s.workers))
	// Derived at scrape time from the store's outcome counters.
	hit, co := s.store.Rates()
	gauge("ipex_ipexd_cache_hit_ratio", "fraction of served requests answered from a cache tier", hit)
	gauge("ipex_ipexd_coalesce_rate", "fraction of served requests coalesced onto an in-flight computation", co)
	cs := s.sup.Counters.Snapshot()
	gauge("ipex_ipexd_cells_executed", "simulations run by the worker pool", float64(cs.Executed))
	gauge("ipex_ipexd_cells_retried", "simulation re-runs after a transient failure", float64(cs.Retried))
	gauge("ipex_ipexd_cell_panics", "isolated simulation panics (propagated as 500s)", float64(cs.Panics))
	// A scrape racing a disconnect can fail mid-write; there is no one to
	// report that to, so the error is dropped.
	_ = s.reg.WriteProm(w)
}
