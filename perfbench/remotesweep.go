package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"ipex/internal/experiments"
	"ipex/internal/harness"
	"ipex/internal/nvp"
	"ipex/internal/power"
	"ipex/internal/promtext"
	"ipex/internal/remote"
	"ipex/internal/workload"
)

// remoteSweep drives the paper sweep through internal/remote against one
// ipexd subprocess. Each run starts a server with an empty cache
// directory (not timed), makes a cold pass — every distinct remotable
// cell simulates on the server and is written to its disk tier — and then
// a warm pass, in which every remotable cell is a memory hit.
type remoteSweep struct {
	cfg           config
	ref           []byte
	insts, cycles uint64
	runs          int
}

func newRemoteSweep(cfg config) bench { return &remoteSweep{cfg: cfg} }

// setup generates the power traces and starts ipexd until /healthz
// answers.
func (b *remoteSweep) setup() (span, error) {
	dir, err := os.MkdirTemp(b.cfg.work, "setup-")
	if err != nil {
		return span{}, err
	}
	defer os.RemoveAll(dir)
	stop := measure()
	genTraces(b.cfg.seed)
	srv, err := startIpexd(b.cfg.ipexd, dir, b.cfg.workers)
	if err != nil {
		return span{}, err
	}
	sp := stop()
	// The server's whole life, drain included, counts as set-up CPU time:
	// the exact figure for a child is only known once it is reaped.
	children := rusage(syscall.RUSAGE_CHILDREN)
	srv.stop()
	sp.cpu += rusage(syscall.RUSAGE_CHILDREN) - children
	return sp, nil
}

func (b *remoteSweep) options(sup *harness.Supervisor) experiments.Options {
	return experiments.Options{
		Scale: b.cfg.sweepScale, Apps: b.cfg.apps, TraceSeed: b.cfg.seed,
		Parallelism: b.cfg.workers, Workloads: workload.NewStore(), Sup: sup,
	}
}

// reference renders the sweep locally once.
func (b *remoteSweep) reference(res *result) error {
	sink := &statsSink{}
	out := runSweep(b.options(&harness.Supervisor{Journal: sink}))
	if out.errs > 0 {
		return fmt.Errorf("%d experiment(s) failed", out.errs)
	}
	b.ref, b.insts, b.cycles = out.text, sink.st.insts, sink.st.cycles
	res.digest("sweep.reference", sha(out.text))
	return nil
}

// timedRemote times every RunRemote call and totals the results it hands
// back.
type timedRemote struct {
	inner harness.RemoteRunner

	mu  sync.Mutex
	lat []time.Duration
	st  cellStats
}

func (t *timedRemote) RunRemote(key, label string, req []byte) (nvp.Result, bool, error) {
	start := time.Now()
	res, handled, err := t.inner.RunRemote(key, label, req)
	d := time.Since(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lat = append(t.lat, d)
	if handled && err == nil {
		t.st.add(key, res)
	}
	return res, handled, err
}

// countingEncoder times remote.EncodeCell and counts the cells it cannot
// express.
type countingEncoder struct {
	mu          sync.Mutex
	unencodable int
	busy        time.Duration
}

func (c *countingEncoder) encode(app string, scale float64, tr *power.Trace, seed uint64, cfg nvp.Config, key string) []byte {
	start := time.Now()
	req := remote.EncodeCell(app, scale, tr, seed, cfg, key)
	d := time.Since(start)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.busy += d
	if req == nil {
		c.unencodable++
	}
	return req
}

func (b *remoteSweep) run(res *result, traced bool) (sample, error) {
	var s sample
	b.runs++
	dir := filepath.Join(b.cfg.work, fmt.Sprintf("remote-%d", b.runs))
	defer os.RemoveAll(dir)
	srv, err := startIpexd(b.cfg.ipexd, dir, b.cfg.workers)
	if err != nil {
		return s, err
	}
	defer srv.stop()
	client, err := remote.NewClient(remote.Options{
		Servers: []string{srv.url}, Retries: 3, Timeout: 15 * time.Second,
		HedgeAfter: 250 * time.Millisecond, BaseContext: context.Background(),
	})
	if err != nil {
		return s, err
	}

	sup := &harness.Supervisor{Remote: client}
	coldRemote := &timedRemote{inner: client}
	enc := &countingEncoder{}
	sink := &statsSink{}
	o := b.options(sup)
	o.RemoteEncode = remote.EncodeCell
	if traced {
		sup.Remote, sup.Journal, sup.Obs = coldRemote, sink, newObs()
		o.RemoteEncode = enc.encode
	}
	pid := srv.pid()
	stop := measure(pid)
	cold := runSweep(o)
	s.cold = stop()
	afterCold, err := srv.metrics()
	if err != nil {
		return s, err
	}

	warmRemote := &timedRemote{inner: client}
	sup2 := &harness.Supervisor{Remote: warmRemote}
	o2 := b.options(sup2)
	o2.RemoteEncode = remote.EncodeCell
	stop = measure(pid)
	warm := runSweep(o2)
	s.warm = stop()
	afterWarm, err := srv.metrics()
	if err != nil {
		return s, err
	}
	rss := srv.rssMB()

	s.insts, s.tput, s.lat = float64(b.insts), s.cold, warmRemote.lat
	cs, ws, snap := sup.Counters.Snapshot(), sup2.Counters.Snapshot(), client.Snapshot()
	res.ops(cs.Executed+cs.Remote+ws.Executed+ws.Remote+snap.Attempts,
		cs.Failures+ws.Failures+snap.StatusErrors+snap.NetErrors+snap.VerifyErrors+snap.CellsFailed+uint64(cold.errs+warm.errs))
	res.check("remote cold output = local sweep", bytes.Equal(cold.text, b.ref))
	res.check("remote warm output = local sweep", bytes.Equal(warm.text, b.ref))
	computed := func(e *promtext.Exposition) float64 { return value(e, "ipex_store_computed", "ipex_store_computed") }
	res.check("warm pass simulates nothing on the server", ws.Remote > 0 && computed(afterWarm) == computed(afterCold))
	res.digest("sweep.cold", sha(cold.text))
	res.digest("sweep.warm", sha(warm.text))
	res.model.observe(res, cold.fig10Gain, b.cycles)

	if traced {
		l := map[string]float64{}
		if err := b.layers(l, sup, sink, coldRemote, warmRemote, enc, client.Snapshot(), afterWarm, cold, s.cold.wall, o.Workloads); err != nil {
			return s, err
		}
		l["ipexd.rss_mb"] = rss
		s.layers = l
	}
	return s, nil
}

// layers fills the traced run's per-layer metrics from the client side,
// the cold pass's supervisor and the server's /metrics.
func (b *remoteSweep) layers(l map[string]float64, sup *harness.Supervisor, sink *statsSink, cold, warm *timedRemote,
	enc *countingEncoder, snap remote.Snapshot, m *promtext.Exposition, out sweepOut, coldWall time.Duration, store *workload.Store) error {
	l["power.gen_s"] = genTraces(b.cfg.seed).wall.Seconds()
	if n := store.Len(); n > 0 {
		apps := b.cfg.appList()
		streams, gen, err := genStreams(apps, b.cfg.sweepScale)
		if err != nil {
			return err
		}
		// Local cells generated n of the apps' streams.
		l["workload.gen_s"] = gen.Seconds() * float64(n) / float64(len(apps))
		l["workload.streams"] = float64(n)
		for _, st := range streams[:n] {
			l["workload.insts"] += float64(st.Len())
		}
	}
	probe, tr, err := probeInputs(b.cfg)
	if err != nil {
		return err
	}
	if err := probeLayers(l, probe, tr); err != nil {
		return err
	}
	var coldRemote time.Duration
	for _, d := range cold.lat {
		coldRemote += d
	}
	harnessLayers(l, sup, sink.st, coldWall.Seconds(), out.renderS, coldRemote.Seconds(), b.cfg.workers)
	simLayers(l, sink.st)
	// The cold pass's results came from both sides; nvp work is the local
	// share plus what the server reports.
	local := float64(sup.Counters.Snapshot().Executed)
	l["nvp.runs"] = local + value(m, "ipex_ipexd_cells_executed", "ipex_ipexd_cells_executed")
	l["nvp.insts"] = float64(sink.st.insts-cold.st.insts) + value(m, "ipex_run_insts", "ipex_run_insts")
	l["nvp.outages"] = float64(sink.st.outages-cold.st.outages) + value(m, "ipex_run_outages", "ipex_run_outages")
	l["nvp.busy_s"] += value(m, "ipex_harness_attempt_seconds", "ipex_harness_attempt_seconds_sum")
	finishNvp(l)

	var rtt []float64
	for _, t := range []*timedRemote{cold, warm} {
		rtt = append(rtt, ms(t.lat)...)
	}
	var rttSum float64
	for _, v := range rtt {
		rttSum += v
	}
	l["remote.requests"] = float64(snap.Attempts)
	l["remote.unencodable"] = float64(enc.unencodable)
	l["remote.encode_s"] = enc.busy.Seconds()
	l["remote.rtt_p50_ms"] = percentile(rtt, 0.50)
	l["remote.rtt_p99_ms"] = percentile(rtt, 0.99)
	l["remote.retries"] = float64(snap.Retries)
	l["remote.hedges"] = float64(snap.Hedges)
	l["remote.fallbacks"] = float64(snap.CellsLocalFallback)

	run := promtext.Buckets(m.Family("ipex_ipexd_run_seconds"))
	l["ipexd.run_p50_ms"] = 1e3 * promtext.Quantile(0.50, run)
	l["ipexd.run_p99_ms"] = 1e3 * promtext.Quantile(0.99, run)
	serverMean := 1e3 * ratio(value(m, "ipex_ipexd_run_seconds", "ipex_ipexd_run_seconds_sum"),
		value(m, "ipex_ipexd_run_seconds", "ipex_ipexd_run_seconds_count"))
	l["http.overhead_ms"] = ratio(rttSum, float64(len(rtt))) - serverMean
	for name, series := range map[string]string{
		"store.mem_hits": "ipex_store_mem_hits", "store.disk_hits": "ipex_store_disk_hits",
		"store.misses": "ipex_store_computed", "store.coalesced": "ipex_store_coalesced",
		"store.hit_ratio": "ipex_ipexd_cache_hit_ratio",
	} {
		l[name] = value(m, series, series)
	}
	l["store.compute_s"] = value(m, "ipex_store_compute_seconds", "ipex_store_compute_seconds_sum")
	l["store.disk_read_s"] = value(m, "ipex_store_disk_read_seconds", "ipex_store_disk_read_seconds_sum")
	return nil
}
