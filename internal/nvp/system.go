package nvp

import (
	"context"
	"fmt"

	"ipex/internal/cache"
	"ipex/internal/capacitor"
	"ipex/internal/core"
	"ipex/internal/energy"
	"ipex/internal/mem"
	"ipex/internal/power"
	"ipex/internal/prefetch"
	"ipex/internal/profile"
	"ipex/internal/trace"
	"ipex/internal/workload"
)

// side bundles the per-cache-side hardware: cache, prefetch buffer,
// prefetcher, IPEX controller, and statistics.
type side struct {
	name   string
	cache  *cache.Cache
	buf    *cache.PrefetchBuffer
	pf     prefetch.Prefetcher
	ctl    *core.Controller
	params energy.CacheParams
	stats  SideStats
	cands  []uint64 // scratch candidate list, reused per access
	// observes and proposed count this run's prefetcher observations and
	// the candidates they produced, for the metrics registry.
	observes, proposed uint64
	// inflight stages issued-but-incomplete prefetch reads in
	// prefetch-to-cache mode; its capacity is the prefetch buffer size.
	inflight []pfReq
	// agNJ is the prefetcher's per-trigger address-generation energy
	// (§5.2), zero for register-based prefetchers.
	agNJ float64
	// pfSkipHits marks a hit-indifferent, zero-address-gen-cost prefetcher
	// (prefetch.HitIndifferent): plain demand hits then bypass the
	// observation call without changing any simulated state or statistic.
	pfSkipHits bool
	// minReady is a watermark at or below the earliest readyAt in
	// inflight (noReady when empty). drainPrefetches returns in O(1)
	// while now < minReady — the common case, since it runs on every
	// access but prefetch reads take tens of cycles to complete. The
	// watermark may go stale-low after a removal (never stale-high), so
	// it only ever causes a redundant scan, never a missed drain.
	minReady uint64
	// throttledQ remembers IPEX-throttled candidate blocks for the
	// ReissueOnExit extension (bounded FIFO).
	throttledQ []uint64
}

// noReady is the minReady watermark of an empty in-flight queue.
const noReady = ^uint64(0)

// throttledQCap bounds the reissue queue (ReissueOnExit): roughly one
// power cycle's worth of suppressed stream heads.
const throttledQCap = 16

// pfReq is one outstanding prefetch read.
type pfReq struct {
	block   uint64
	readyAt uint64
}

// findInflight returns the index of block in the in-flight queue, or -1.
// The queue is bounded by Config.PrefetchBufEntries (≤ 8 in every evaluated
// configuration), so a linear scan beats a block→index map: no hashing, no
// allocation, and the whole queue fits in one cache line. The minReady
// watermark, not a map, is what makes the per-access drain O(1).
func (sd *side) findInflight(block uint64) int {
	for i := range sd.inflight {
		if sd.inflight[i].block == block {
			return i
		}
	}
	return -1
}

// removeInflight drops entry i, preserving order.
func (sd *side) removeInflight(i int) {
	sd.inflight = append(sd.inflight[:i], sd.inflight[i+1:]...)
}

// System is one assembled NVP simulation. Build with NewSystem, drive with
// Run (or Step for fine-grained tests).
type System struct {
	cfg   Config
	wl    workload.Generator
	trace *power.Trace

	cap  *capacitor.Capacitor
	nvm  *mem.NVM
	inst side
	data side

	// Absolute time in cycles and the accounting split.
	now       uint64
	onCycles  uint64
	offCycles uint64
	outages   uint64
	insts     uint64

	// Pending dynamic energy per bucket, drained by advanceOn.
	pend energy.Breakdown
	// Accumulated consumed energy.
	consumed energy.Breakdown

	// Per-cycle leakage constants (nJ/cycle), split by bucket.
	leakCacheNJ   float64
	leakMemNJ     float64
	leakComputeNJ float64

	// Harvest sample cache: samplePow is trace.PowerAt for the sample
	// window ending at cycle sampleEnd. The trace is piecewise-constant
	// over SampleIntervalCycles windows and simulated time is monotonic,
	// so one lookup per window replaces one per harvested chunk.
	sampleEnd uint64
	samplePow float64

	// dirtyScratch is the reused checkpoint address buffer; outage()
	// refills it instead of allocating a fresh DirtyAddrs slice per
	// power failure.
	dirtyScratch []uint64

	maxCycles uint64

	// Telemetry (Config.RecordCycles) and guard-band accounting.
	guardViolations uint64
	cycleLog        []PowerCycleStats
	mark            cycleMark

	// tr, when non-nil, receives the event stream (Config.Tracer); pcIdx is
	// the 0-based power-cycle index the tracer clock stamps on every event.
	tr    *trace.Tracer
	pcIdx uint64

	// flt holds the fault injectors (Config.Faults), par the runtime
	// invariant checker (Config.Paranoid), and prof the attribution
	// profiler (Config.Profile); all are nil when disabled and every
	// integration site costs one nil compare then.
	flt  *faultRuntime
	par  *paranoid
	prof *profiler

	// ctx, when non-nil (RunContext), is polled at power-cycle boundaries:
	// a cancelled run stops cleanly after the next reboot with
	// Completed=false, exactly like a run that exhausted its cycle budget.
	// Checking only at outages keeps the per-instruction hot loop free of
	// any context overhead; cancellation latency is one power cycle.
	ctx context.Context
}

// cycleMark snapshots the counters at the start of a power cycle so the
// per-cycle deltas can be computed at the outage.
type cycleMark struct {
	startCycle uint64
	onCycles   uint64
	insts      uint64
	issued     uint64
	throttled  uint64
	wiped      uint64
	// Per-side demand-stream snapshots for the cycle_stats trace event.
	instAccesses uint64
	instMisses   uint64
	dataAccesses uint64
	dataMisses   uint64
}

// NewSystem builds a system for one workload and power trace.
func NewSystem(wl workload.Generator, trace *power.Trace, cfg Config) (*System, error) {
	return newSystem(nil, wl, trace, cfg)
}

// newSystem assembles a system, recycling the arena's components where their
// configuration matches (a nil arena builds everything fresh — the classic
// NewSystem path). Every recycled component is Reset to its
// just-constructed state first, so an arena-assembled system starts
// bit-identical to a fresh one; the arena-vs-fresh determinism tests and
// the golden suite pin that equivalence.
func newSystem(a *Arena, wl workload.Generator, trace *power.Trace, cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if wl == nil {
		return nil, fmt.Errorf("nvp: nil workload")
	}
	if trace == nil {
		return nil, fmt.Errorf("nvp: nil power trace")
	}
	// The capacitor is pure value state: reusable whenever the
	// configuration matches (the boot SetVoltage below defines its whole
	// initial state). The energy-cutoff converter rides along — the method
	// value is the one closure allocation NewSystem cannot avoid, so the
	// arena caches it with the capacitor.
	var cp *capacitor.Capacitor
	var cutoff func(v float64) float64
	if a != nil && a.cap != nil && a.capCfg == cfg.Capacitor {
		cp, cutoff = a.cap, a.cutoff
	} else {
		var err error
		cp, err = capacitor.New(cfg.Capacitor)
		if err != nil {
			return nil, err
		}
		cutoff = cp.EnergyCutoffNJ
		if a != nil {
			a.cap, a.capCfg, a.cutoff = cp, cfg.Capacitor, cutoff
		}
	}

	buildSide := func(slot *sideSlot, prev *side, name string, size int, kind prefetch.Kind, factory func() prefetch.Prefetcher, ipexOn bool) (side, error) {
		params := energy.CacheFor(size, cfg.Ways)
		var c *cache.Cache
		if slot != nil && slot.cache != nil && slot.params == params {
			c = slot.cache
			c.Reset()
		} else {
			var err error
			c, err = cache.New(params)
			if err != nil {
				return side{}, err
			}
			if slot != nil {
				slot.cache, slot.params = c, params
			}
		}
		bufDepth := cfg.PrefetchBufEntries
		if bufDepth < 1 {
			bufDepth = 1 // NewPrefetchBuffer's clamp
		}
		var b *cache.PrefetchBuffer
		if slot != nil && slot.buf != nil && slot.buf.Size() == bufDepth {
			b = slot.buf
			b.Reset()
		} else {
			b = cache.NewPrefetchBuffer(cfg.PrefetchBufEntries)
			if slot != nil {
				slot.buf = b
			}
		}
		// A factory-built prefetcher is never recycled: the factory contract
		// is one fresh instance per run. Built-in kinds are recycled via
		// their Reset, which restores the virgin table state.
		var pf prefetch.Prefetcher
		if factory != nil {
			pf = factory()
		} else if slot != nil && slot.pf != nil && slot.pfKind == kind {
			pf = slot.pf
			pf.Reset()
		} else {
			var err error
			if pf, err = prefetch.New(kind); err != nil {
				return side{}, err
			}
			if slot != nil {
				slot.pf, slot.pfKind = pf, kind
			}
		}
		ipexCfg := cfg.IPEX
		ipexCfg.Enabled = ipexOn && pf != nil
		ipexCfg.InitialDegree = cfg.InitialDegree
		var ctl *core.Controller
		if slot != nil && slot.ctl != nil && ipexCfgEqual(slot.ctlCfg, ipexCfg) {
			ctl = slot.ctl
			ctl.Reset()
		} else {
			var err error
			ctl, err = core.NewController(ipexCfg)
			if err != nil {
				return side{}, err
			}
			if slot != nil {
				slot.ctl, slot.ctlCfg = ctl, ipexCfg
			}
		}
		// Let the controller compare capacitor energy against precomputed
		// per-threshold energy cutoffs instead of taking a square root per
		// observation; the cutoffs are exact (bit-identical decisions).
		ctl.UseEnergyCutoffs(cutoff)
		sd := side{
			name:     name,
			cache:    c,
			buf:      b,
			pf:       pf,
			ctl:      ctl,
			params:   params,
			minReady: noReady,
		}
		if coster, ok := pf.(prefetch.AddressGenCoster); ok {
			sd.agNJ = coster.AddressGenNJ()
		}
		// Hits may skip the observation only when the prefetcher ignores
		// them AND charges no per-access address-generation energy —
		// otherwise the skip would change the energy ledger.
		if hi, ok := pf.(prefetch.HitIndifferent); ok && hi.HitIndifferent() && sd.agNJ == 0 {
			sd.pfSkipHits = true
		}
		// Scratch buffers keep their previous run's capacity ([:0] reuse).
		if prev != nil {
			sd.cands = prev.cands[:0]
			sd.inflight = prev.inflight[:0]
			sd.throttledQ = prev.throttledQ[:0]
		}
		return sd, nil
	}

	var instSlot, dataSlot *sideSlot
	var prevInst, prevData *side
	var prevDirty []uint64
	if a != nil {
		instSlot, dataSlot = &a.instSlot, &a.dataSlot
		prevInst, prevData = &a.sys.inst, &a.sys.data
		prevDirty = a.sys.dirtyScratch
	}
	is, err := buildSide(instSlot, prevInst, "icache", cfg.ICacheSize, cfg.IPrefetcher, cfg.IPrefetcherFactory, cfg.IPEXInst)
	if err != nil {
		return nil, err
	}
	ds, err := buildSide(dataSlot, prevData, "dcache", cfg.DCacheSize, cfg.DPrefetcher, cfg.DPrefetcherFactory, cfg.IPEXData)
	if err != nil {
		return nil, err
	}

	var nv *mem.NVM
	if a != nil && a.nvm != nil {
		nv = a.nvm
		nv.Reset(cfg.NVM)
	} else {
		nv = mem.New(cfg.NVM)
		if a != nil {
			a.nvm = nv
		}
	}

	maxCycles := cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = DefaultMaxCycles
	}

	var s *System
	if a != nil {
		s = &a.sys
	} else {
		s = &System{}
	}
	// Whole-struct assignment: every per-run field (clocks, pending energy,
	// telemetry, observers) restarts from its zero value exactly as a fresh
	// System would. cycleLog deliberately restarts nil, never [:0] — the
	// previous run's Result aliases its backing array via PowerCycleLog.
	*s = System{
		cfg:       cfg,
		wl:        wl,
		trace:     trace,
		cap:       cp,
		nvm:       nv,
		inst:      is,
		data:      ds,
		maxCycles: maxCycles,

		dirtyScratch: prevDirty[:0],

		leakCacheNJ:   energy.LeakNJPerCycle(is.params.LeakMW) + energy.LeakNJPerCycle(ds.params.LeakMW),
		leakMemNJ:     energy.LeakNJPerCycle(cfg.NVM.LeakMW),
		leakComputeNJ: energy.LeakNJPerCycle(energy.CoreLeakMW),
	}
	if cfg.Tracer != nil {
		s.tr = cfg.Tracer
		for _, sd := range [2]*side{&s.inst, &s.data} {
			sd.cache.SetTracer(cfg.Tracer, sd.name)
			sd.buf.SetTracer(cfg.Tracer, sd.name)
			sd.ctl.SetTracer(cfg.Tracer, sd.name)
		}
	}
	s.flt = newFaultRuntime(cfg.Faults, cfg.Capacitor.Vmax, s.tr)
	// The system boots with the capacitor at Von: the reboot threshold is
	// the defined start-of-power-cycle state.
	s.cap.SetVoltage(cfg.Capacitor.Von)
	if cfg.Paranoid {
		s.par = &paranoid{cycleStartE: s.cap.EnergyNJ()}
	}
	if cfg.Profile {
		s.prof = newProfiler()
	}
	return s, nil
}

// Run executes the workload to completion (or the cycle budget) and
// returns the result.
func Run(wl workload.Generator, trace *power.Trace, cfg Config) (Result, error) {
	s, err := NewSystem(wl, trace, cfg)
	if err != nil {
		return Result{}, err
	}
	return s.run()
}

// RunContext is Run with cooperative cancellation: when ctx is cancelled
// the simulation stops cleanly at the next power-cycle boundary (after the
// JIT checkpoint, outage, and reboot complete) and returns the partial
// result with Completed=false and a nil error — the same contract as a run
// that exhausted its MaxCycles budget, so every downstream consumer
// (skipped-app filtering, journaling) handles it identically. Inspect
// ctx.Err() to distinguish cancellation from budget truncation. A nil ctx
// behaves exactly like Run.
func RunContext(ctx context.Context, wl workload.Generator, trace *power.Trace, cfg Config) (Result, error) {
	s, err := NewSystem(wl, trace, cfg)
	if err != nil {
		return Result{}, err
	}
	s.ctx = ctx
	return s.run()
}

func (s *System) run() (Result, error) {
	// Per-configuration loop specialization: when every observer and
	// ablation the generic loop branches on is off AND the workload is a
	// replay cursor over a shared trace arena, hand control to a fast loop
	// compiled for that branch assignment (see fastloop.go). The selection
	// happens once here; the fast loops are bit-identical to the loop below.
	if cur, ok := s.wl.(*workload.Cursor); ok && s.canFastLoop() {
		if s.inst.pf == nil && s.data.pf == nil {
			return s.runFastNoPF(cur)
		}
		return s.runFast(cur)
	}
	wl := s.wl
	completed := true
	cancelled := false
	if s.tr != nil {
		s.tr.Begin(wl.Name(), func() (uint64, uint64) { return s.now, s.pcIdx })
		s.tr.Emit(trace.Event{Kind: trace.KindCycleStart})
	}
	for {
		a, ok := wl.Next()
		if !ok {
			break
		}
		s.insts++

		// Instruction fetch.
		istall := s.access(&s.inst, a.PC, a.PC, false)
		cycles := uint64(1) + istall
		s.inst.stats.StallCycles += istall
		s.pend.Compute += energy.ComputeNJPerInst
		if p := s.prof; p != nil {
			p.cyc.Insts++
			p.cyc.Cycles[profile.CycCompute]++
			p.cyc.EnergyNJ[profile.ECompute] += energy.ComputeNJPerInst
			p.endAccess(istall)
		}

		// Data reference.
		if a.HasData {
			dstall := s.access(&s.data, a.PC, a.DataAddr, a.Write)
			cycles += dstall
			s.data.stats.StallCycles += dstall
			if s.prof != nil {
				s.prof.endAccess(dstall)
			}
		}

		s.advanceOn(cycles)

		// Voltage monitor: IPEX observation and outage detection. The
		// monitor compares stored energy against precomputed cutoffs —
		// exactly equivalent to comparing Voltage() against thresholds,
		// without the per-instruction square roots. Under an injected
		// sensor fault the equivalence no longer holds (readings stop
		// mapping one-to-one onto stored energy), so that path feeds the
		// controllers the faulted voltage directly; the outage comparator
		// below stays exact either way — it models the dedicated analog
		// brown-out detector, not the ADC.
		if s.flt != nil && s.flt.sensor != nil {
			s.observeSensor()
		} else if s.cfg.ReissueOnExit {
			e := s.cap.EnergyNJ()
			for _, sd := range [2]*side{&s.inst, &s.data} {
				before := sd.ctl.Degree()
				sd.ctl.ObserveEnergy(e)
				if sd.ctl.Degree() > before {
					// Back toward high-performance mode: replay what was
					// throttled earlier in this power cycle.
					s.reissueThrottled(sd)
				}
			}
		} else {
			e := s.cap.EnergyNJ()
			s.inst.ctl.ObserveEnergy(e)
			s.data.ctl.ObserveEnergy(e)
		}
		if s.cap.BelowBackup() {
			s.outage()
			// Cooperative cancellation (RunContext) is honoured only here,
			// right after a reboot: the checkpoint is durable, no simulated
			// state is half-applied, and the hot loop never touches the
			// context. The partial result reports Completed=false exactly
			// like a budget-truncated run.
			if s.ctx != nil && s.ctx.Err() != nil {
				completed = false
				cancelled = true
				break
			}
		}

		if s.now >= s.maxCycles {
			completed = false
			break
		}
	}
	if s.tr != nil {
		// The final partial cycle gets its demand-stream deltas too, so the
		// offline analyzer's per-side totals match the Result aggregates.
		s.emitCycleStats()
		detail := "completed"
		if !completed {
			detail = "budget"
		}
		if cancelled {
			detail = "cancelled"
		}
		s.tr.Emit(trace.Event{Kind: trace.KindRunEnd, N: int64(s.insts), Detail: detail})
	}
	return s.result(completed), nil
}

// snapshotCycle re-marks the counters at a power-cycle boundary.
func (s *System) snapshotCycle() {
	ic, dc := s.inst.cache.Stats(), s.data.cache.Stats()
	s.mark = cycleMark{
		startCycle:   s.now,
		onCycles:     s.onCycles,
		insts:        s.insts,
		issued:       s.inst.stats.PrefetchIssued + s.data.stats.PrefetchIssued,
		throttled:    s.inst.stats.PrefetchThrottled + s.data.stats.PrefetchThrottled,
		wiped:        s.wipedUnusedNow(),
		instAccesses: ic.Accesses,
		instMisses:   ic.Misses,
		dataAccesses: dc.Accesses,
		dataMisses:   dc.Misses,
	}
}

// emitCycleStats streams each cache side's demand-stream deltas for the
// power cycle closing now; paired with the cycle_end (or run_end) event
// that follows it.
func (s *System) emitCycleStats() {
	if s.tr == nil {
		return
	}
	ic, dc := s.inst.cache.Stats(), s.data.cache.Stats()
	s.tr.Emit(trace.Event{Kind: trace.KindCycleStats, Side: s.inst.name,
		Accesses: ic.Accesses - s.mark.instAccesses, Misses: ic.Misses - s.mark.instMisses})
	s.tr.Emit(trace.Event{Kind: trace.KindCycleStats, Side: s.data.name,
		Accesses: dc.Accesses - s.mark.dataAccesses, Misses: dc.Misses - s.mark.dataMisses})
}

// wipedUnusedNow totals outage-destroyed unused prefetches so far.
func (s *System) wipedUnusedNow() uint64 {
	return s.inst.cache.Stats().PrefetchedWiped + s.data.cache.Stats().PrefetchedWiped +
		s.inst.buf.Stats().WipedUnused + s.data.buf.Stats().WipedUnused +
		s.inst.stats.InflightWiped + s.data.stats.InflightWiped
}

// flushCycle appends the finished (or final partial) power cycle to the
// telemetry log.
func (s *System) flushCycle(dirtyAtBackup int) {
	if !s.cfg.RecordCycles {
		return
	}
	s.cycleLog = append(s.cycleLog, PowerCycleStats{
		StartCycle:        s.mark.startCycle,
		OnCycles:          s.onCycles - s.mark.onCycles,
		Insts:             s.insts - s.mark.insts,
		PrefetchIssued:    s.inst.stats.PrefetchIssued + s.data.stats.PrefetchIssued - s.mark.issued,
		PrefetchThrottled: s.inst.stats.PrefetchThrottled + s.data.stats.PrefetchThrottled - s.mark.throttled,
		WipedUnused:       s.wipedUnusedNow() - s.mark.wiped,
		DirtyAtBackup:     dirtyAtBackup,
	})
}

// drainPrefetches moves completed in-flight prefetches into the cache
// (prefetch-to-cache mode). A block whose demand copy arrived first counts
// as a useless (redundant) prefetch.
func (s *System) drainPrefetches(sd *side) {
	if s.now < sd.minReady {
		// Watermark fast path: nothing in flight can be ready yet.
		return
	}
	min := uint64(noReady)
	for i := 0; i < len(sd.inflight); {
		e := sd.inflight[i]
		if e.readyAt > s.now {
			if e.readyAt < min {
				min = e.readyAt
			}
			i++
			continue
		}
		sd.removeInflight(i)
		if sd.cache.Contains(e.block) {
			// Redundant: a demand fill won the race; the read energy is
			// wasted (this is what §5.1's suppression avoids).
			sd.stats.InflightRedundant++
			continue
		}
		s.pend.Cache += sd.params.AccessNJ // array write on promote
		if p := s.prof; p != nil {
			p.energy(profile.EPrefetch, sd.params.AccessNJ)
			p.unwipe(s, sd, e.block)
		}
		if sd.cache.FillPrefetched(e.block) {
			_, wnj := s.nvm.Write(mem.WritebackWrite)
			s.pend.Memory += wnj
			if s.prof != nil {
				s.prof.energy(profile.EPrefetch, wnj)
			}
		}
	}
	sd.minReady = min
}

// access performs one demand access on a side and returns the stall cycles
// it caused beyond the base pipeline cycle.
func (s *System) access(sd *side, pc, addr uint64, write bool) (stall uint64) {
	block := sd.cache.BlockAddr(addr)
	if s.cfg.PrefetchToCache && s.now >= sd.minReady {
		// Watermark checked here so the common nothing-ready case costs a
		// compare instead of a function call.
		s.drainPrefetches(sd)
	}
	hit := sd.cache.Access(addr, write)
	s.pend.Cache += sd.params.AccessNJ
	if s.prof != nil {
		s.prof.beginAccess(s, sd)
	}

	bufHit := false
	switch {
	case hit:
		// Nothing to do; a first hit on a prefetched line was counted as
		// useful by the cache itself.
	case s.cfg.PrefetchToCache:
		if idx := sd.findInflight(block); idx >= 0 && s.cfg.DupSuppress {
			// §5.1: an in-flight prefetch holds the block; wait for it
			// rather than issuing a duplicate NVM request.
			bufHit = true
			e := sd.inflight[idx]
			if e.readyAt > s.now {
				stall += e.readyAt - s.now
			}
			sd.removeInflight(idx)
			sd.stats.InflightServed++
			sd.cache.NoteBufHit()
			stall++ // promotion into the cache
			s.pend.Cache += sd.params.AccessNJ
			if p := s.prof; p != nil {
				p.accessNJ(sd.params.AccessNJ)
				p.unwipe(s, sd, block)
			}
			s.fill(sd, addr, write)
		} else {
			// A duplicate in-flight copy (DupSuppress off) drains later
			// and is classified redundant by drainPrefetches.
			rc, rnj := s.nvm.Read(mem.DemandRead)
			stall += rc
			s.pend.Memory += rnj
			s.pend.Cache += sd.params.AccessNJ
			if s.prof != nil {
				s.prof.noteDemandRead(s, sd, block, rnj+sd.params.AccessNJ)
			}
			s.fill(sd, addr, write)
		}
	default:
		if e := sd.buf.Lookup(block); e != nil && s.cfg.DupSuppress {
			// Buffer mode §5.1: the prefetch buffer holds the block (or
			// its in-flight read); wait and promote.
			bufHit = true
			if e.ReadyAt > s.now {
				stall += e.ReadyAt - s.now
			}
			sd.buf.Take(block)
			if s.tr != nil {
				s.tr.Emit(trace.Event{Kind: trace.KindPrefetchFirstUse,
					Side: sd.name, Block: block, Detail: "buffer"})
			}
			sd.cache.NoteBufHit()
			stall++ // promotion into the cache
			s.pend.Cache += sd.params.AccessNJ
			if p := s.prof; p != nil {
				p.accessNJ(sd.params.AccessNJ)
				p.unwipe(s, sd, block)
			}
			s.fill(sd, addr, write)
		} else {
			if sd.buf.Lookup(block) != nil {
				// Ablation path (DupSuppress off): the duplicate demand
				// read is issued anyway; the buffered copy ends its life
				// unused.
				sd.buf.Drop(block)
			}
			rc, rnj := s.nvm.Read(mem.DemandRead)
			stall += rc
			s.pend.Memory += rnj
			s.pend.Cache += sd.params.AccessNJ
			if s.prof != nil {
				s.prof.noteDemandRead(s, sd, block, rnj+sd.params.AccessNJ)
			}
			s.fill(sd, addr, write)
		}
	}

	// Prefetcher observation and issue. Prefetch reads go on the bus
	// after the demand traffic of this access, so their completion time
	// includes the stall accrued so far — late prefetches (§5.1) arise
	// naturally from this serialization.
	if sd.pf != nil {
		if hit && sd.pfSkipHits {
			// The prefetcher neither trains nor emits on a plain hit and
			// costs nothing to consult: skip the call (bufHit implies a
			// miss, so this branch never hides a buffer-hit trigger).
			return stall
		}
		// §5.2: with IPEX holding the degree at zero, the prefetcher's
		// table-lookup address generation is powered down entirely.
		if s.cfg.GateAddressGen && sd.agNJ > 0 && sd.ctl.Enabled() && sd.ctl.Degree() == 0 {
			sd.stats.AddressGenGated++
			return stall
		}
		if sd.agNJ != 0 {
			s.pend.Cache += sd.agNJ
			if s.prof != nil {
				s.prof.energy(profile.EPrefetch, sd.agNJ)
			}
		}
		sd.cands = sd.pf.OnAccess(sd.cands[:0], prefetch.Event{
			PC:        pc,
			Addr:      addr,
			Block:     block,
			Miss:      !hit,
			BufHit:    bufHit,
			BlockSize: uint64(sd.params.BlockSize),
		})
		sd.observes++
		sd.proposed += uint64(len(sd.cands))
		if len(sd.cands) != 0 {
			s.issuePrefetches(sd, stall)
		}
	}
	return stall
}

// fill inserts a block into a side's cache, handling dirty writeback. Only
// demand accesses reach it, so a writeback's energy follows the current
// access's attribution category.
func (s *System) fill(sd *side, addr uint64, write bool) {
	if sd.cache.Fill(addr, write) {
		// Posted writeback: energy and traffic, no pipeline stall.
		_, wnj := s.nvm.Write(mem.WritebackWrite)
		s.pend.Memory += wnj
		if s.prof != nil {
			s.prof.accessNJ(wnj)
		}
	}
}

// issuePrefetches filters a side's candidate list and issues up to the
// active degree, recording throttling against the conventional degree.
func (s *System) issuePrefetches(sd *side, busyCycles uint64) {
	// Filter candidates already covered or out of memory bounds, in place.
	memSize := uint64(s.cfg.NVM.SizeBytes)
	kept := sd.cands[:0]
candidates:
	for _, c := range sd.cands {
		b := sd.cache.BlockAddr(c)
		if b >= memSize {
			continue
		}
		if sd.cache.Contains(b) {
			continue
		}
		if s.cfg.PrefetchToCache {
			if sd.findInflight(b) >= 0 {
				continue
			}
		} else if sd.buf.Lookup(b) != nil {
			continue
		}
		for _, k := range kept {
			if k == b {
				continue candidates
			}
		}
		kept = append(kept, b)
	}
	if len(kept) == 0 {
		return
	}
	requested := len(kept)
	if requested > s.cfg.InitialDegree {
		requested = s.cfg.InitialDegree
	}
	// IPEX grants up to the current degree; the staging capacity then
	// bounds how many reads can actually be outstanding (that drop is a
	// structural limit, not IPEX throttling, and is not Recorded).
	granted := len(kept)
	if granted > sd.ctl.Degree() {
		granted = sd.ctl.Degree()
	}
	issue := granted
	if s.cfg.PrefetchToCache {
		if free := s.cfg.PrefetchBufEntries - len(sd.inflight); issue > free {
			issue = free
		}
	}
	for i := 0; i < issue; i++ {
		rc, rnj := s.nvm.Read(mem.PrefetchRead)
		s.pend.Memory += rnj
		if s.prof != nil {
			s.prof.energy(profile.EPrefetch, rnj)
		}
		start := s.now + busyCycles
		if s.cfg.PrefetchToCache {
			rdy := start + rc
			sd.inflight = append(sd.inflight, pfReq{block: kept[i], readyAt: rdy})
			if rdy < sd.minReady {
				sd.minReady = rdy
			}
		} else {
			sd.buf.Insert(kept[i], start+rc)
		}
	}
	sd.ctl.Record(requested, granted)
	sd.stats.PrefetchIssued += uint64(issue)
	if s.tr != nil {
		for i := 0; i < issue; i++ {
			s.tr.Emit(trace.Event{Kind: trace.KindPrefetchIssue,
				Side: sd.name, Block: kept[i]})
		}
	}
	if requested > granted {
		sd.stats.PrefetchThrottled += uint64(requested - granted)
		if s.tr != nil {
			for _, b := range kept[granted:requested] {
				s.tr.Emit(trace.Event{Kind: trace.KindPrefetchThrottle,
					Side: sd.name, Block: b})
			}
		}
		if s.cfg.ReissueOnExit {
		enqueue:
			for _, b := range kept[granted:requested] {
				// A block throttled twice in one power cycle (the stream
				// head barely moves while the degree is held down) must not
				// occupy two of the 16 FIFO slots: the duplicate reissue
				// would be filtered later anyway, but it evicts an older
				// block that would have been replayed.
				for _, q := range sd.throttledQ {
					if q == b {
						continue enqueue
					}
				}
				if len(sd.throttledQ) == throttledQCap {
					sd.throttledQ = sd.throttledQ[1:]
				}
				sd.throttledQ = append(sd.throttledQ, b)
			}
		}
	}
}

// reissueThrottled re-issues previously throttled prefetches after IPEX
// returns to high-performance mode — the §5.1 extension the paper leaves
// as future work (Config.ReissueOnExit).
func (s *System) reissueThrottled(sd *side) {
	memSize := uint64(s.cfg.NVM.SizeBytes)
	for len(sd.throttledQ) > 0 {
		b := sd.throttledQ[0]
		sd.throttledQ = sd.throttledQ[1:]
		if b >= memSize || sd.cache.Contains(b) {
			continue
		}
		if s.cfg.PrefetchToCache {
			if sd.findInflight(b) >= 0 {
				continue
			}
			if len(sd.inflight) >= s.cfg.PrefetchBufEntries {
				// No staging slot: put it back and stop for now.
				sd.throttledQ = append([]uint64{b}, sd.throttledQ...)
				return
			}
			rc, rnj := s.nvm.Read(mem.PrefetchRead)
			s.pend.Memory += rnj
			if s.prof != nil {
				s.prof.energy(profile.EPrefetch, rnj)
			}
			rdy := s.now + rc
			sd.inflight = append(sd.inflight, pfReq{block: b, readyAt: rdy})
			if rdy < sd.minReady {
				sd.minReady = rdy
			}
		} else {
			if sd.buf.Lookup(b) != nil {
				continue
			}
			rc, rnj := s.nvm.Read(mem.PrefetchRead)
			s.pend.Memory += rnj
			if s.prof != nil {
				s.prof.energy(profile.EPrefetch, rnj)
			}
			sd.buf.Insert(b, s.now+rc)
		}
		sd.stats.PrefetchIssued++
		sd.stats.PrefetchReissued++
		if s.tr != nil {
			s.tr.Emit(trace.Event{Kind: trace.KindPrefetchIssue,
				Side: sd.name, Block: b, Detail: "reissue"})
		}
	}
}

// advanceOn moves powered time forward by `cycles`, charging leakage,
// draining pending dynamic energy, and harvesting from the trace.
func (s *System) advanceOn(cycles uint64) {
	s.harvest(cycles)

	// Leakage added field-by-field in Breakdown.Add's order; skipping the
	// BkRst term (identically zero for leakage) is bitwise-neutral since
	// x + 0.0 == x for the non-negative energies accumulated here.
	fc := float64(cycles)
	s.pend.Cache += s.leakCacheNJ * fc
	s.pend.Memory += s.leakMemNJ * fc
	s.pend.Compute += s.leakComputeNJ * fc
	if s.prof != nil {
		s.prof.energy(profile.ELeakage, (s.leakCacheNJ+s.leakMemNJ+s.leakComputeNJ)*fc)
	}

	s.capConsume(s.pend.Total())
	s.consumed.Add(s.pend)
	s.pend = energy.Breakdown{}

	s.now += cycles
	s.onCycles += cycles
}

// harvest integrates the power trace over [now, now+cycles), honouring the
// 10 µs sample boundaries. The trace is constant within a sample window, so
// the power value is cached until simulated time crosses sampleEnd — time
// only moves forward, so a single monotonic check replaces the div+mod trace
// lookup on every call.
func (s *System) harvest(cycles uint64) {
	t := s.now
	remaining := cycles
	for remaining > 0 {
		if t >= s.sampleEnd {
			s.samplePow = s.powerAt(t)
			s.sampleEnd = (t/power.SampleIntervalCycles + 1) * power.SampleIntervalCycles
		}
		chunk := s.sampleEnd - t
		if chunk > remaining {
			chunk = remaining
		}
		s.capHarvest(power.EnergyNJ(s.samplePow, chunk))
		t += chunk
		remaining -= chunk
	}
}

// outage performs the JIT checkpoint, powers the system off, recharges,
// restores, and reboots.
func (s *System) outage() {
	s.outages++

	// 1. JIT checkpoint: dirty DCache blocks + all volatile registers.
	// The address list is only needed for the non-ideal backup/restore
	// walk; it goes into a reused scratch buffer so an outage allocates
	// nothing. Ideal mode needs just the count, and only for telemetry.
	dirty := 0
	var bkNJ float64
	if s.cfg.Ideal {
		if s.cfg.RecordCycles || s.tr != nil {
			dirty = s.data.cache.DirtyCount()
		}
	} else {
		s.dirtyScratch = s.data.cache.DirtyAddrsAppend(s.dirtyScratch[:0])
		dirty = len(s.dirtyScratch)

		var bkCycles uint64
		if s.flt != nil && s.flt.ckpt != nil {
			bkCycles, bkNJ = s.checkpointWalk()
		} else {
			for range s.dirtyScratch {
				wc, wnj := s.nvm.Write(mem.CheckpointWrite)
				bkCycles += wc
				bkNJ += wnj
			}
		}
		bkCycles += 16 // register file into NVFFs
		bkNJ += energy.RegisterBackupNJ
		if bkNJ > s.cap.GuardEnergyNJ() {
			// The guard band cannot fund this checkpoint: a real system
			// would brown out mid-backup. Count the misprovisioning; the
			// backup itself still completes (see Result.GuardViolations).
			s.guardViolations++
		}
		s.pend.BkRst += bkNJ
		if p := s.prof; p != nil {
			p.energy(profile.ECheckpoint, bkNJ)
			p.cyc.Cycles[profile.CycCheckpoint] += bkCycles
		}
		s.harvest(bkCycles)
		s.capConsume(s.pend.Total())
		s.consumed.Add(s.pend)
		s.pend = energy.Breakdown{}
		s.now += bkCycles
		s.onCycles += bkCycles
	}
	s.inst.ctl.Backup()
	s.data.ctl.Backup()
	if s.tr != nil {
		s.tr.Emit(trace.Event{Kind: trace.KindCheckpoint,
			N: int64(dirty), Value: bkNJ})
	}

	// 2. Power failure wipes all volatile state, including in-flight
	// prefetch reads (their energy is already spent — pure waste).
	if s.prof != nil {
		s.prof.captureWipe(s)
	}
	s.inst.cache.Wipe()
	s.data.cache.Wipe()
	s.inst.buf.Wipe()
	s.data.buf.Wipe()
	for _, sd := range [2]*side{&s.inst, &s.data} {
		if s.tr != nil {
			for _, r := range sd.inflight {
				s.tr.Emit(trace.Event{Kind: trace.KindPrefetchWipe,
					Side: sd.name, Block: r.block, Detail: "inflight"})
			}
		}
		sd.stats.InflightWiped += uint64(len(sd.inflight))
		sd.inflight = sd.inflight[:0]
		sd.minReady = noReady
		sd.throttledQ = sd.throttledQ[:0]
	}
	if s.inst.pf != nil {
		s.inst.pf.Reset()
	}
	if s.data.pf != nil {
		s.data.pf.Reset()
	}
	s.emitCycleStats()
	if s.tr != nil {
		s.tr.Emit(trace.Event{Kind: trace.KindCycleEnd,
			N: int64(s.insts - s.mark.insts)})
	}

	// 3. Dead until the capacitor recharges to Von. No consumption while
	// off; time passes in trace-sample steps.
	off0 := s.offCycles
	for !s.cap.AtOrAboveOn() && s.now < s.maxCycles {
		chunk := power.SampleIntervalCycles - s.now%power.SampleIntervalCycles
		s.capHarvest(power.EnergyNJ(s.powerAt(s.now), chunk))
		s.now += chunk
		s.offCycles += chunk
	}
	if s.prof != nil {
		s.prof.cyc.Cycles[profile.CycOff] += s.offCycles - off0
	}
	// Everything from the restore walk on belongs to the next power cycle.
	s.pcIdx++

	// 4. Reboot: restore registers and the checkpointed dirty blocks.
	if !s.cfg.Ideal {
		var rsCycles uint64
		var rsNJ float64
		for _, addr := range s.dirtyScratch {
			rc, rnj := s.nvm.Read(mem.RestoreRead)
			rsCycles += rc
			rsNJ += rnj
			// Restored blocks re-enter the cache clean (NVM now holds
			// their latest value).
			s.data.cache.Fill(addr, false)
			if s.prof != nil {
				s.prof.unwipe(s, &s.data, addr)
			}
		}
		rsCycles += 12
		rsNJ += energy.RegisterRestoreNJ
		s.pend.BkRst += rsNJ
		if p := s.prof; p != nil {
			p.energy(profile.ERestore, rsNJ)
			p.cyc.Cycles[profile.CycRestore] += rsCycles
		}
		s.harvest(rsCycles)
		s.capConsume(s.pend.Total())
		s.consumed.Add(s.pend)
		s.pend = energy.Breakdown{}
		s.now += rsCycles
		s.onCycles += rsCycles
	}
	s.inst.ctl.OnReboot()
	s.data.ctl.OnReboot()
	if s.tr != nil {
		s.tr.Emit(trace.Event{Kind: trace.KindCycleStart})
	}
	if s.par != nil {
		// s.mark still describes the finished cycle: snapshotCycle below is
		// what rolls it forward.
		s.par.endCycle(s, s.insts-s.mark.insts)
	}
	if s.prof != nil {
		// Closed at the same boundary the paranoid ledger closes (restore
		// already charged), so record and shadow intervals coincide.
		s.prof.flushRecord(s)
	}

	s.flushCycle(dirty)
	s.snapshotCycle()
}

// result finalizes statistics into a Result.
func (s *System) result(completed bool) Result {
	s.inst.buf.Drain()
	s.data.buf.Drain()
	s.inst.cache.DrainPrefetchStats()
	s.data.cache.DrainPrefetchStats()

	collect := func(sd *side) SideStats {
		st := sd.stats
		st.ToCache = s.cfg.PrefetchToCache
		// Still-in-flight reads at end of run never served anyone.
		st.Cache = sd.cache.Stats()
		st.Buffer = sd.buf.Stats()
		st.IPEX = sd.ctl.Stats()
		return st
	}
	s.flushCycle(s.data.cache.DirtyBlocks())
	if m := s.cfg.Metrics; m != nil {
		m.Counter("run.insts").Add(s.insts)
		m.Counter("run.cycles").Add(s.now)
		m.Counter("run.on_cycles").Add(s.onCycles)
		m.Counter("run.off_cycles").Add(s.offCycles)
		m.Counter("run.outages").Add(s.outages)
		m.Counter("run.guard_violations").Add(s.guardViolations)
		for _, sd := range [2]*side{&s.inst, &s.data} {
			p := sd.name + "."
			cs, bs := sd.cache.Stats(), sd.buf.Stats()
			m.Counter(p + "accesses").Add(cs.Accesses)
			m.Counter(p + "misses").Add(cs.Misses)
			m.Counter(p + "pf_issued").Add(sd.stats.PrefetchIssued)
			m.Counter(p + "pf_throttled").Add(sd.stats.PrefetchThrottled)
			m.Counter(p + "pf_reissued").Add(sd.stats.PrefetchReissued)
			m.Counter(p + "pf_useful").Add(cs.PrefetchedUseful + bs.UsefulEvicted)
			m.Counter(p + "pf_wiped_cache").Add(cs.PrefetchedWiped)
			m.Counter(p + "pf_wiped_buffer").Add(bs.WipedUnused)
			m.Counter(p + "pf_wiped_inflight").Add(sd.stats.InflightWiped)
			if sd.pf != nil {
				// Every outage resets each side's prefetcher exactly once.
				pp := p + sd.pf.Name() + "."
				m.Counter(pp + "observes").Add(sd.observes)
				m.Counter(pp + "proposed").Add(sd.proposed)
				m.Counter(pp + "resets").Add(s.outages)
			}
		}
		m.Gauge("energy.total_nj").Add(s.consumed.Total())
		m.Gauge("energy.cache_nj").Add(s.consumed.Cache)
		m.Gauge("energy.memory_nj").Add(s.consumed.Memory)
		m.Gauge("energy.compute_nj").Add(s.consumed.Compute)
		m.Gauge("energy.bkrst_nj").Add(s.consumed.BkRst)
	}
	r := Result{
		App:             s.wl.Name(),
		Trace:           s.trace.Name,
		Completed:       completed,
		Insts:           s.insts,
		Cycles:          s.now,
		OnCycles:        s.onCycles,
		OffCycles:       s.offCycles,
		Outages:         s.outages,
		Energy:          s.consumed,
		Inst:            collect(&s.inst),
		Data:            collect(&s.data),
		NVM:             s.nvm.Stats(),
		GuardViolations: s.guardViolations,
		PowerCycleLog:   s.cycleLog,
	}
	if s.flt != nil {
		fs := s.flt.stats
		r.Faults = &fs
	}
	if s.prof != nil {
		// After the stat drains above, so the outcome split matches the
		// Result's counters; before finalChecks, which cross-checks it.
		r.Profile = s.prof.finish(s)
	}
	if s.par != nil {
		s.par.finalChecks(s, &r)
		rep := s.par.rep
		r.Invariants = &rep
	}
	return r
}
