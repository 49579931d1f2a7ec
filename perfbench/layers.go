package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"ipex/internal/cache"
	"ipex/internal/capacitor"
	"ipex/internal/core"
	"ipex/internal/energy"
	"ipex/internal/harness"
	"ipex/internal/nvp"
	"ipex/internal/power"
	"ipex/internal/prefetch"
	"ipex/internal/promtext"
	"ipex/internal/stats"
	"ipex/internal/trace"
	"ipex/internal/workload"
)

type layerMetric struct{ name, unit string }

// layerMetrics is every per-layer metric, in report order. A traced run
// reports all of them on every workload; a layer the workload bypasses
// reads 0, which is the "no change" that workload predicts for it.
var layerMetrics = []layerMetric{
	{"workload.gen_s", "s"}, {"workload.streams", "count"}, {"workload.insts", "count"},
	{"power.gen_s", "s"},
	{"nvp.runs", "count"}, {"nvp.insts", "count"}, {"nvp.busy_s", "s"}, {"nvp.ns_per_inst", "ns"},
	{"nvp.allocs_per_run", "count"}, {"nvp.outages", "count"},
	{"cache.access_ns.1way", "ns"}, {"cache.access_ns.4way", "ns"}, {"cache.access_ns.8way", "ns"},
	{"cache.fill_ns", "ns"}, {"cache.contains_ns", "ns"}, {"cache.i_miss_ratio", "ratio"},
	{"cache.d_miss_ratio", "ratio"}, {"cache.buf_hits", "count"}, {"cache.busy_s", "s"},
	{"prefetch.on_access_ns.sequential", "ns"}, {"prefetch.on_access_ns.stride", "ns"},
	{"prefetch.on_access_ns.markov", "ns"}, {"prefetch.on_access_ns.tifs", "ns"},
	{"prefetch.on_access_ns.ghb", "ns"}, {"prefetch.on_access_ns.bo", "ns"},
	{"prefetch.on_access_ns.ampm", "ns"},
	{"prefetch.issued", "count"}, {"prefetch.useful_ratio", "ratio"}, {"prefetch.wiped", "count"},
	{"ipex.observe_ns", "ns"}, {"ipex.throttled", "count"}, {"ipex.throttle_ratio", "ratio"},
	{"capacitor.step_ns", "ns"},
	{"harness.cells", "count"}, {"harness.executed", "count"}, {"harness.unique_ratio", "ratio"},
	{"harness.queue_wait_p50_ms", "ms"}, {"harness.queue_wait_p99_ms", "ms"},
	{"harness.attempt_s", "s"}, {"harness.dispatch_s", "s"}, {"harness.retried", "count"},
	{"harness.failed", "count"},
	{"journal.appends", "count"}, {"journal.append_s", "s"}, {"journal.append_p50_ms", "ms"},
	{"journal.append_p99_ms", "ms"}, {"journal.bytes", "bytes"},
	{"experiments.render_s", "s"},
	{"remote.requests", "count"}, {"remote.unencodable", "count"}, {"remote.encode_s", "s"},
	{"remote.rtt_p50_ms", "ms"}, {"remote.rtt_p99_ms", "ms"}, {"remote.retries", "count"},
	{"remote.hedges", "count"}, {"remote.fallbacks", "count"},
	{"ipexd.run_p50_ms", "ms"}, {"ipexd.run_p99_ms", "ms"}, {"ipexd.rss_mb", "MB"},
	{"http.overhead_ms", "ms"},
	{"store.mem_hits", "count"}, {"store.disk_hits", "count"}, {"store.misses", "count"},
	{"store.coalesced", "count"}, {"store.hit_ratio", "ratio"}, {"store.compute_s", "s"},
	{"store.disk_read_s", "s"},
	{"gc.cycles", "count"}, {"alloc_mb", "MB"}, {"trace.overhead_pct", "%"},
	{"error_rate", "fraction"},
}

// spanBounds are fine geometric buckets (5 % wide, 100 ns to 100 s) for
// the harness spans a traced run records, so their quantiles are read to
// within a few percent.
var spanBounds = stats.ExpBounds(1e-7, 100, 1.05)

// newObs builds the harness span recorder over fine buckets.
func newObs() *harness.Obs {
	reg := trace.NewRegistry()
	return &harness.Obs{
		Clock:         trace.NewWallClock(),
		QueueWait:     reg.Histogram("queue_wait", spanBounds),
		Attempt:       reg.Histogram("attempt", spanBounds),
		Backoff:       reg.Histogram("backoff", spanBounds),
		JournalAppend: reg.Histogram("journal_append", spanBounds),
	}
}

// histQuantile estimates a quantile of a histogram by linear
// interpolation within its bucket.
func histQuantile(h stats.Histogram, q float64) float64 {
	bs := make([]promtext.Bucket, 0, len(h.Bounds)+1)
	var cum float64
	for i, b := range h.Bounds {
		cum += float64(h.Counts[i])
		bs = append(bs, promtext.Bucket{Upper: b, CumCount: cum})
	}
	cum += float64(h.Counts[len(h.Bounds)])
	bs = append(bs, promtext.Bucket{Upper: math.Inf(1), CumCount: cum})
	v := promtext.Quantile(q, bs)
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// harnessLayers reports the supervisor's counters and spans of one pass.
// busyWall is the pass's wall time, during which workers worker
// goroutines were available; whatever of that is not spent in local cell
// attempts, remote calls (remoteS), journal appends or rendering is
// dispatch and idle time.
func harnessLayers(l map[string]float64, sup *harness.Supervisor, st cellStats, busyWall, renderS, remoteS float64, workers int) {
	cs := sup.Counters.Snapshot()
	att := sup.Obs.Attempt.Snapshot()
	qw := sup.Obs.QueueWait.Snapshot()
	l["harness.cells"] = float64(cs.Executed + cs.Replayed + cs.Remote + cs.Skipped)
	l["harness.executed"] = float64(cs.Executed)
	l["harness.unique_ratio"] = ratio(float64(len(st.keys)), float64(st.cells))
	l["harness.queue_wait_p50_ms"] = 1e3 * histQuantile(qw, 0.50)
	l["harness.queue_wait_p99_ms"] = 1e3 * histQuantile(qw, 0.99)
	l["harness.attempt_s"] = att.Sum
	l["harness.dispatch_s"] = math.Max(0, busyWall*float64(workers)-att.Sum-remoteS-l["journal.append_s"]-renderS*float64(workers))
	l["harness.retried"] = float64(cs.Retried)
	l["harness.failed"] = float64(cs.Failures)
	l["experiments.render_s"] = renderS
	l["nvp.busy_s"] += att.Sum
}

// simLayers reports the counts that simulation results carry.
func simLayers(l map[string]float64, st cellStats) {
	l["nvp.runs"] += float64(st.cells)
	l["nvp.insts"] += float64(st.insts)
	l["nvp.outages"] += float64(st.outages)
	l["cache.i_miss_ratio"] = ratio(float64(st.iMiss), float64(st.iAcc))
	l["cache.d_miss_ratio"] = ratio(float64(st.dMiss), float64(st.dAcc))
	l["cache.buf_hits"] = float64(st.bufHits)
	l["prefetch.issued"] = float64(st.pfIssued)
	l["prefetch.useful_ratio"] = ratio(st.pfUseful, float64(st.pfIssued))
	l["prefetch.wiped"] = float64(st.pfWiped)
	l["ipex.throttled"] = float64(st.throttled)
	l["ipex.throttle_ratio"] = ratio(float64(st.throttled), float64(st.throttled+st.ipexIssued))
	l["cache.busy_s"] = float64(st.iAcc+st.dAcc) * l["cache.access_ns.4way"] / 1e9
}

// finishNvp derives the per-instruction cost once busy time and
// instruction counts are in.
func finishNvp(l map[string]float64) {
	l["nvp.ns_per_inst"] = ratio(l["nvp.busy_s"]*1e9, l["nvp.insts"])
}

// probeAccesses caps how many accesses of each stream the sub-layer
// probes replay, keeping a traced run short.
const probeAccesses = 200_000

// probeLayers times the simulator's sub-layers outside the simulator by
// replaying recorded address streams through their public functions, and
// measures steady-state allocations per simulation run. The results are
// per-call costs; a traced run multiplies them by the call counts that
// nvp.Result reports.
func probeLayers(l map[string]float64, streams []*workload.Stream, tr *power.Trace) error {
	var accs []workload.Access
	for _, st := range streams {
		a := st.Accesses()
		if len(a) > probeAccesses {
			a = a[:probeAccesses]
		}
		accs = append(accs, a...)
	}
	if len(accs) == 0 {
		return fmt.Errorf("no accesses to probe")
	}

	// Demand accesses at three associativities, filling on a miss; the
	// 4-way replay also records which accesses missed, for the
	// prefetchers below.
	var iMiss, dMiss []bool
	for _, ways := range []int{1, 4, 8} {
		ic, err := cache.New(energy.CacheFor(energy.DefaultCacheSize, ways))
		if err != nil {
			return err
		}
		dc := cache.MustNew(energy.CacheFor(energy.DefaultCacheSize, ways))
		record := ways == 4
		if record {
			iMiss = make([]bool, len(accs))
			dMiss = make([]bool, len(accs))
		}
		calls := 0
		start := time.Now()
		for i, a := range accs {
			calls++
			if !ic.Access(a.PC, false) {
				ic.Fill(a.PC, false)
				if record {
					iMiss[i] = true
				}
			}
			if a.HasData {
				calls++
				if !dc.Access(a.DataAddr, a.Write) {
					dc.Fill(a.DataAddr, a.Write)
					if record {
						dMiss[i] = true
					}
				}
			}
		}
		l[fmt.Sprintf("cache.access_ns.%dway", ways)] = float64(time.Since(start).Nanoseconds()) / float64(calls)
	}

	c := cache.MustNew(energy.CacheFor(energy.DefaultCacheSize, 4))
	start := time.Now()
	for _, a := range accs {
		c.Fill(a.PC, false)
	}
	l["cache.fill_ns"] = float64(time.Since(start).Nanoseconds()) / float64(len(accs))
	hits := 0
	start = time.Now()
	for _, a := range accs {
		if c.Contains(a.DataAddr) {
			hits++
		}
	}
	l["cache.contains_ns"] = float64(time.Since(start).Nanoseconds()) / float64(len(accs))
	runtime.KeepAlive(hits)

	block := uint64(energy.DefaultBlockSize)
	inst := map[prefetch.Kind]bool{prefetch.KindSequential: true, prefetch.KindMarkov: true, prefetch.KindTIFS: true}
	for _, kind := range []prefetch.Kind{prefetch.KindSequential, prefetch.KindStride, prefetch.KindMarkov,
		prefetch.KindTIFS, prefetch.KindGHB, prefetch.KindBO, prefetch.KindAMPM} {
		p, err := prefetch.New(kind)
		if err != nil {
			return err
		}
		dst := make([]uint64, 0, 2*prefetch.MaxDegree)
		calls := 0
		start := time.Now()
		for i, a := range accs {
			ev := prefetch.Event{PC: a.PC, Addr: a.PC, Miss: iMiss[i], BlockSize: block}
			if !inst[kind] {
				if !a.HasData {
					continue
				}
				ev.Addr, ev.Miss = a.DataAddr, dMiss[i]
			}
			ev.Block = ev.Addr &^ (block - 1)
			dst = p.OnAccess(dst[:0], ev)
			calls++
		}
		l["prefetch.on_access_ns."+string(kind)] = ratio(float64(time.Since(start).Nanoseconds()), float64(calls))
	}

	// The capacitor integrates the trace's harvest and a steady draw; the
	// stored energies it passes through then drive the IPEX controller.
	capCfg := capacitor.DefaultConfig()
	cp := capacitor.MustNew(capCfg)
	cp.SetVoltage(capCfg.Von)
	draw := power.EnergyNJ(2*tr.MeanPower(), 1)
	es := make([]float64, len(accs))
	start = time.Now()
	for i := range es {
		cp.Harvest(power.EnergyNJ(tr.PowerAt(uint64(i)), 1))
		cp.Consume(draw)
		if cp.BelowBackup() {
			cp.SetVoltage(capCfg.Von)
		}
		es[i] = cp.EnergyNJ()
	}
	l["capacitor.step_ns"] = float64(time.Since(start).Nanoseconds()) / float64(len(es))
	icfg := core.DefaultConfig(capCfg.Vbackup, capCfg.Von)
	icfg.Enabled = true
	ctl, err := core.NewController(icfg)
	if err != nil {
		return err
	}
	ctl.UseEnergyCutoffs(cp.EnergyCutoffNJ)
	start = time.Now()
	for _, e := range es {
		ctl.ObserveEnergy(e)
	}
	l["ipex.observe_ns"] = float64(time.Since(start).Nanoseconds()) / float64(len(es))

	// Steady-state allocations: one warm-up round through an arena, then
	// a measured round over the same streams.
	arena := nvp.NewArena()
	cfg := nvp.DefaultConfig()
	var before, after runtime.MemStats
	for round := 0; round < 2; round++ {
		if round == 1 {
			runtime.ReadMemStats(&before)
		}
		for _, st := range streams {
			if _, err := arena.RunStream(st, tr, cfg); err != nil {
				return err
			}
		}
	}
	runtime.ReadMemStats(&after)
	l["nvp.allocs_per_run"] = float64(after.Mallocs-before.Mallocs) / float64(len(streams))
	return nil
}
