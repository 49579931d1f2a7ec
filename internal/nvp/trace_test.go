package nvp

import (
	"bufio"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"ipex/internal/trace"
	"ipex/internal/workload"
)

// tracedRun executes one run with a tracer (and registry) attached and
// returns the result, the parsed event stream, and the registry.
func tracedRun(t *testing.T, app string, scale float64, mut func(*Config)) (Result, []trace.Event, *trace.Registry) {
	t.Helper()
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	var sb strings.Builder
	cfg.Tracer = trace.NewJSONL(&sb)
	cfg.Metrics = trace.NewRegistry()
	r, err := Run(workload.MustNew(app, scale), testTrace(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	var evs []trace.Event
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e trace.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", sc.Text(), err)
		}
		evs = append(evs, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return r, evs, cfg.Metrics
}

func countKind(evs []trace.Event, k trace.Kind, detail string) uint64 {
	var n uint64
	for _, e := range evs {
		if e.Kind == k && (detail == "" || e.Detail == detail) {
			n++
		}
	}
	return n
}

// TestTracingDoesNotPerturbResult is the zero-interference contract: the
// same run with and without a tracer must produce a bit-identical Result.
func TestTracingDoesNotPerturbResult(t *testing.T) {
	plain := runApp(t, "fft", 0.1, func(c *Config) { *c = c.WithIPEX() })
	traced, _, _ := tracedRun(t, "fft", 0.1, func(c *Config) { *c = c.WithIPEX() })
	if !reflect.DeepEqual(plain, traced) {
		t.Errorf("tracing changed the result:\nplain:  %+v\ntraced: %+v", plain, traced)
	}
}

// TestTraceWipeEventsMatchAggregates pins the stream's decomposition of the
// headline statistic: summing pf_wipe events (per location, and per power
// cycle) must reproduce the end-of-run aggregates exactly.
func TestTraceWipeEventsMatchAggregates(t *testing.T) {
	r, evs, _ := tracedRun(t, "gsme", 0.1, nil)
	if r.Outages == 0 {
		t.Fatal("run saw no outages; the wipe paths were never exercised")
	}

	wantCache := r.Inst.Cache.PrefetchedWiped + r.Data.Cache.PrefetchedWiped
	if got := countKind(evs, trace.KindPrefetchWipe, "cache"); got != wantCache {
		t.Errorf("pf_wipe(cache) events = %d, want PrefetchedWiped sum %d", got, wantCache)
	}
	wantBuf := r.Inst.Buffer.WipedUnused + r.Data.Buffer.WipedUnused
	if got := countKind(evs, trace.KindPrefetchWipe, "buffer"); got != wantBuf {
		t.Errorf("pf_wipe(buffer) events = %d, want WipedUnused sum %d", got, wantBuf)
	}
	wantInflight := r.Inst.InflightWiped + r.Data.InflightWiped
	if got := countKind(evs, trace.KindPrefetchWipe, "inflight"); got != wantInflight {
		t.Errorf("pf_wipe(inflight) events = %d, want InflightWiped sum %d", got, wantInflight)
	}

	// Per-power-cycle decomposition: wipes grouped by pcycle stamp sum to
	// the same aggregate, and no wipe is stamped past the last outage.
	perCycle := map[uint64]uint64{}
	for _, e := range evs {
		if e.Kind == trace.KindPrefetchWipe && e.Detail == "cache" {
			perCycle[e.PowerCycle]++
		}
	}
	var sum uint64
	for pc, n := range perCycle {
		if pc >= r.Outages {
			t.Errorf("wipe stamped in power cycle %d, but only %d outages happened", pc, r.Outages)
		}
		sum += n
	}
	if sum != wantCache {
		t.Errorf("per-cycle wipe counts sum to %d, want %d", sum, wantCache)
	}
}

// TestTraceCycleStatsMatchAggregates pins the per-cycle demand-stream
// events: summing cycle_stats deltas per side must reproduce the end-of-run
// cache statistics exactly, and every power cycle (including the final
// partial one) must carry exactly one event per side.
func TestTraceCycleStatsMatchAggregates(t *testing.T) {
	r, evs, _ := tracedRun(t, "gsme", 0.1, nil)
	if r.Outages == 0 {
		t.Fatal("run saw no outages; per-cycle emission was never exercised")
	}
	var n, iacc, imiss, dacc, dmiss uint64
	for _, e := range evs {
		if e.Kind != trace.KindCycleStats {
			continue
		}
		n++
		switch e.Side {
		case "icache":
			iacc += e.Accesses
			imiss += e.Misses
		case "dcache":
			dacc += e.Accesses
			dmiss += e.Misses
		default:
			t.Fatalf("cycle_stats with unknown side: %+v", e)
		}
	}
	if want := 2 * (r.Outages + 1); n != want {
		t.Errorf("cycle_stats events = %d, want 2 per power cycle (%d)", n, want)
	}
	if iacc != r.Inst.Cache.Accesses || imiss != r.Inst.Cache.Misses {
		t.Errorf("icache deltas sum to %d/%d, want %d/%d",
			iacc, imiss, r.Inst.Cache.Accesses, r.Inst.Cache.Misses)
	}
	if dacc != r.Data.Cache.Accesses || dmiss != r.Data.Cache.Misses {
		t.Errorf("dcache deltas sum to %d/%d, want %d/%d",
			dacc, dmiss, r.Data.Cache.Accesses, r.Data.Cache.Misses)
	}
}

// TestTraceStreamStructure checks the bracketing and boundary events.
func TestTraceStreamStructure(t *testing.T) {
	r, evs, _ := tracedRun(t, "fft", 0.1, nil)
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	if evs[0].Kind != trace.KindRunStart || evs[0].Run != "fft" {
		t.Errorf("stream does not open with run_start(fft): %+v", evs[0])
	}
	last := evs[len(evs)-1]
	if last.Kind != trace.KindRunEnd || uint64(last.N) != r.Insts || last.Detail != "completed" {
		t.Errorf("stream does not close with run_end(insts=%d, completed): %+v", r.Insts, last)
	}
	if got := countKind(evs, trace.KindCycleEnd, ""); got != r.Outages {
		t.Errorf("cycle_end events = %d, want one per outage (%d)", got, r.Outages)
	}
	if got := countKind(evs, trace.KindCycleStart, ""); got != r.Outages+1 {
		t.Errorf("cycle_start events = %d, want outages+1 = %d", got, r.Outages+1)
	}
	if got := countKind(evs, trace.KindCheckpoint, ""); got != r.Outages {
		t.Errorf("checkpoint events = %d, want one per outage (%d)", got, r.Outages)
	}
	wantIssued := r.Inst.PrefetchIssued + r.Data.PrefetchIssued
	if got := countKind(evs, trace.KindPrefetchIssue, ""); got != wantIssued {
		t.Errorf("pf_issue events = %d, want PrefetchIssued sum %d", got, wantIssued)
	}
	// Cycle and power-cycle stamps never move backwards.
	var lastCycle, lastPC uint64
	for i, e := range evs {
		if e.Cycle < lastCycle || e.PowerCycle < lastPC {
			t.Fatalf("event %d moved backwards in time: %+v after cycle=%d pcycle=%d",
				i, e, lastCycle, lastPC)
		}
		lastCycle, lastPC = e.Cycle, e.PowerCycle
	}
}

// TestMetricsMatchResult pins the registry snapshot against the Result.
func TestMetricsMatchResult(t *testing.T) {
	r, _, reg := tracedRun(t, "gsme", 0.1, func(c *Config) { *c = c.WithIPEX() })
	checks := []struct {
		name string
		want uint64
	}{
		{"run.insts", r.Insts},
		{"run.outages", r.Outages},
		{"run.cycles", r.Cycles},
		{"icache.pf_issued", r.Inst.PrefetchIssued},
		{"dcache.pf_issued", r.Data.PrefetchIssued},
		{"icache.pf_throttled", r.Inst.PrefetchThrottled},
		{"dcache.pf_throttled", r.Data.PrefetchThrottled},
		{"icache.pf_wiped_cache", r.Inst.Cache.PrefetchedWiped},
		{"dcache.pf_wiped_cache", r.Data.Cache.PrefetchedWiped},
	}
	for _, c := range checks {
		if got := reg.Counter(c.name).Load(); got != c.want {
			t.Errorf("metric %s = %d, want %d", c.name, got, c.want)
		}
	}
	if got := reg.Gauge("energy.total_nj").Load(); got != r.Energy.Total() {
		t.Errorf("metric energy.total_nj = %g, want %g", got, r.Energy.Total())
	}
	// The per-side prefetcher counters must have observed accesses, and
	// every outage resets each side's prefetcher once.
	if got := reg.Counter("dcache.stride.observes").Load(); got == 0 {
		t.Error("dcache.stride.observes = 0; per-side observation counter not published")
	}
	if got := reg.Counter("dcache.stride.resets").Load(); got != r.Outages {
		t.Errorf("dcache.stride.resets = %d, want outages %d", got, r.Outages)
	}
}

// TestThrottledQueueDedupAndCap is the regression test for the ReissueOnExit
// FIFO: one power cycle must not enqueue the same block twice, and the queue
// must slide (oldest out) at throttledQCap.
func TestThrottledQueueDedupAndCap(t *testing.T) {
	cfg := DefaultConfig().WithIPEX()
	cfg.ReissueOnExit = true
	s, err := NewSystem(workload.MustNew("fft", 0.05), testTrace(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sd := &s.data
	// Prime the controller (the first sample only records position), then
	// drain the observation below every threshold: two downward crossings
	// halve the degree 2 -> 1 -> 0, so every candidate throttles.
	sd.ctl.ObserveEnergy(s.cap.EnergyNJ())
	sd.ctl.ObserveEnergy(0)
	if sd.ctl.Degree() != 0 {
		t.Fatalf("degree = %d after observing zero energy, want 0", sd.ctl.Degree())
	}

	issue := func(block uint64) {
		sd.cands = append(sd.cands[:0], block)
		s.issuePrefetches(sd, 0)
	}

	issue(0x1000)
	issue(0x1000) // same block throttled again in the same power cycle
	if len(sd.throttledQ) != 1 {
		t.Fatalf("duplicate enqueue: throttledQ = %v", sd.throttledQ)
	}

	// Fill past the cap with distinct blocks; the FIFO slides.
	for i := 0; i < throttledQCap+4; i++ {
		issue(0x2000 + uint64(i)*64)
	}
	if len(sd.throttledQ) != throttledQCap {
		t.Fatalf("throttledQ length = %d, want cap %d", len(sd.throttledQ), throttledQCap)
	}
	// The oldest entries (0x1000 and the first distinct blocks) slid out;
	// the newest survives at the tail.
	for _, b := range sd.throttledQ {
		if b == 0x1000 {
			t.Error("oldest block still queued after cap overflow")
		}
	}
	if tail := sd.throttledQ[throttledQCap-1]; tail != 0x2000+uint64(throttledQCap+3)*64 {
		t.Errorf("tail = %#x, want the newest throttled block", tail)
	}

	// An outage clears the queue: throttled work does not survive a reboot.
	s.outage()
	if len(sd.throttledQ) != 0 {
		t.Errorf("throttledQ not cleared by outage: %v", sd.throttledQ)
	}
}
