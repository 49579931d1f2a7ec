package nvp

import (
	"ipex/internal/energy"
	"ipex/internal/power"
	"ipex/internal/prefetch"
	"ipex/internal/workload"
)

// This file holds the specialized hot loops. run() selects a variant ONCE at
// entry from the configuration instead of re-testing the same cold branches
// on every access: the generic interpreter loop carries nil checks and mode
// switches (tracer, profiler, paranoid ledger, fault injectors, ablation
// flags) that are loop-invariant, and it keeps every hot counter — clocks,
// pending energy, capacitor charge — in System fields, forcing a memory
// round-trip per update. Each fast loop is a hand-pruned replica of the
// generic path for one branch assignment with the hot counters promoted to
// locals (registers), synchronized with the System fields only at power-
// cycle boundaries and at exit.
//
// BIT-IDENTITY CONTRACT: every statement that touches simulated state keeps
// the generic loop's statement order and floating-point expression shapes,
// so results are bit-identical to the generic loop. Where a term is dropped
// (the BkRst pending bucket, identically zero between outages) the
// neutrality argument is written at the site. The equivalence is pinned by
// TestGoldenFastPaths, TestArenaMatchesFreshRuns and TestArenaRunStream;
// any edit here must keep the op sequence aligned with system.go or those
// tests (and the golden suite) will catch the divergence.
//
// Two variants exist:
//
//	runFast     — prefetchers attached; prunes observers and ablations.
//	runFastNoPF — both prefetchers nil (the no-prefetch sweep corner): no
//	              in-flight queue, no candidate generation, and — because a
//	              side's IPEX controller is only enabled when its prefetcher
//	              exists — no voltage observation at all.
//
// Anything outside the per-instruction path (outage, result assembly) is
// shared with the generic loop unchanged.

// canFastLoop reports whether the configuration is eligible for a
// specialized loop: every pruned branch must actually be off. The workload
// must additionally be a *workload.Cursor (checked by the caller) so the
// loop can walk the access slice directly.
func (s *System) canFastLoop() bool {
	return !s.cfg.DisableFastPaths &&
		s.tr == nil && s.prof == nil && s.par == nil && s.flt == nil &&
		!s.cfg.ReissueOnExit && !s.cfg.GateAddressGen &&
		s.cfg.DupSuppress && s.cfg.PrefetchToCache
}

// hotState carries the register-promoted counters of a fast loop: simulated
// clocks, the instruction count, the pending- and consumed-energy buckets
// (BkRst pends only inside outage(), which runs with the fields synced, so
// it needs no local), the capacitor charge, and the harvest sample cache.
type hotState struct {
	now      uint64
	onCycles uint64
	insts    uint64

	pCache, pMemory float64 // pending dynamic energy (drained every instruction)

	cCache, cMemory, cCompute float64 // consumed energy accumulators

	e         float64 // capacitor charge, nJ
	sampleEnd uint64
	samplePow float64
}

// load populates the locals from the System fields.
func (h *hotState) load(s *System) {
	h.now, h.onCycles, h.insts = s.now, s.onCycles, s.insts
	h.pCache, h.pMemory = s.pend.Cache, s.pend.Memory
	h.cCache, h.cMemory, h.cCompute = s.consumed.Cache, s.consumed.Memory, s.consumed.Compute
	h.e = s.cap.EnergyNJ()
	h.sampleEnd, h.samplePow = s.sampleEnd, s.samplePow
}

// sync writes the locals back so outage() / result() see current state.
func (h *hotState) sync(s *System) {
	s.now, s.onCycles, s.insts = h.now, h.onCycles, h.insts
	s.pend.Cache, s.pend.Memory = h.pCache, h.pMemory
	s.consumed.Cache, s.consumed.Memory, s.consumed.Compute = h.cCache, h.cMemory, h.cCompute
	s.cap.RestoreEnergyNJ(h.e)
	s.sampleEnd, s.samplePow = h.sampleEnd, h.samplePow
}

// runFast is the specialized loop for prefetching configurations.
func (s *System) runFast(cur *workload.Cursor) (Result, error) {
	acc := cur.Stream().Accesses()
	i := cur.Pos()
	completed := true
	inst, data := &s.inst, &s.data
	// A disabled controller's ObserveEnergy is a no-op, so when both are
	// disabled the capacitor read feeding them is dead too; hoisting the
	// check out of the loop removes both calls from every instruction of an
	// IPEX-off run without touching any simulated state.
	observe := inst.ctl.Enabled() || data.ctl.Enabled()
	maxCycles := s.maxCycles
	capMaxNJ := s.cap.CapacityNJ()
	backupCut := s.cap.BackupCutoffNJ()
	leakCache, leakMem, leakCompute := s.leakCacheNJ, s.leakMemNJ, s.leakComputeNJ

	var h hotState
	h.load(s)

	for i < len(acc) {
		a := acc[i]
		i++
		h.insts++

		// Instruction fetch; then data reference. Pending-energy adds keep
		// the generic order: I-side cache/memory, compute base, D-side,
		// leakage last.
		istall, pC, pM := s.fastSideAccess(inst, a.PC, a.PC, false, h.now, h.pCache, h.pMemory)
		cycles := uint64(1) + istall
		inst.stats.StallCycles += istall
		// pend.Compute starts every instruction at zero, so "0 +
		// ComputeNJPerInst" is the value itself.
		pCompute := energy.ComputeNJPerInst

		if a.HasData {
			var dstall uint64
			dstall, pC, pM = s.fastSideAccess(data, a.PC, a.DataAddr, a.Write, h.now, pC, pM)
			cycles += dstall
			data.stats.StallCycles += dstall
		}

		// advanceOn, inlined: harvest over [now, now+cycles), then leakage,
		// then drain the pending energy from the capacitor. The single-
		// window harvest case (the instruction ends inside the cached trace
		// sample) is lifted out of the window loop: it is the overwhelmingly
		// common one and evaluates exactly one energy integration with the
		// identical floating-point expression the loop would.
		t := h.now
		if t < h.sampleEnd && h.sampleEnd-t >= cycles {
			hv := power.EnergyNJ(h.samplePow, cycles)
			if hv > 0 { // Capacitor.Harvest's nj<=0 guard; hv is never negative
				if room := capMaxNJ - h.e; hv > room {
					hv = room
				}
				h.e += hv
			}
		} else {
			remaining := cycles
			for remaining > 0 {
				if t >= h.sampleEnd {
					h.samplePow = s.trace.PowerAt(t)
					h.sampleEnd = (t/power.SampleIntervalCycles + 1) * power.SampleIntervalCycles
				}
				chunk := h.sampleEnd - t
				if chunk > remaining {
					chunk = remaining
				}
				hv := power.EnergyNJ(h.samplePow, chunk)
				if hv > 0 {
					if room := capMaxNJ - h.e; hv > room {
						hv = room
					}
					h.e += hv
				}
				t += chunk
				remaining -= chunk
			}
		}
		fc := float64(cycles)
		pC += leakCache * fc
		pM += leakMem * fc
		pCompute += leakCompute * fc
		// Total() is ((Cache+Memory)+Compute)+BkRst; the pending BkRst
		// bucket is identically zero between outages and x+0.0 == x for the
		// non-negative energies here, so the term is dropped. Same for the
		// consumed.BkRst accumulation below.
		tot := pC + pM + pCompute
		if tot > 0 { // Capacitor.Consume's nj<=0 guard
			h.e -= tot
			if h.e < 0 {
				h.e = 0
			}
		}
		h.cCache += pC
		h.cMemory += pM
		h.cCompute += pCompute
		h.pCache, h.pMemory = 0, 0
		h.now += cycles
		h.onCycles += cycles

		// Voltage monitor: h.e is exactly what cap.EnergyNJ() would return.
		if observe {
			inst.ctl.ObserveEnergy(h.e)
			data.ctl.ObserveEnergy(h.e)
		}
		if h.e < backupCut { // cap.BelowBackup()
			cur.SetPos(i) // keep the generator honest across the boundary
			h.sync(s)
			s.outage()
			h.load(s)
			if s.ctx != nil && s.ctx.Err() != nil {
				completed = false
				break
			}
		}

		if h.now >= maxCycles {
			completed = false
			break
		}
	}
	cur.SetPos(i)
	h.sync(s)
	return s.result(completed), nil
}

// fastSideAccess is access() specialized for prefetch-to-cache + DupSuppress
// with every observer nil and GateAddressGen off. The pending-energy buckets
// and the clock travel through arguments and results so they stay in
// registers in the caller.
func (s *System) fastSideAccess(sd *side, pc, addr uint64, write bool, now uint64, pCache, pMemory float64) (stall uint64, pC, pM float64) {
	block := addr &^ (uint64(sd.params.BlockSize) - 1) // cache.BlockAddr
	if now >= sd.minReady {
		pCache, pMemory = s.fastDrain(sd, now, pCache, pMemory)
	}
	hit := sd.cache.Access(addr, write)
	pCache += sd.params.AccessNJ

	bufHit := false
	if !hit {
		if idx := sd.findInflight(block); idx >= 0 {
			// §5.1: an in-flight prefetch holds the block; wait for it
			// rather than issuing a duplicate NVM request.
			bufHit = true
			e := sd.inflight[idx]
			if e.readyAt > now {
				stall += e.readyAt - now
			}
			sd.removeInflight(idx)
			sd.stats.InflightServed++
			sd.cache.NoteBufHit()
			stall++ // promotion into the cache
			pCache += sd.params.AccessNJ
			if sd.cache.Fill(addr, write) {
				_, wnj := s.nvm.WriteWriteback()
				pMemory += wnj
			}
		} else {
			rc, rnj := s.nvm.ReadDemand()
			stall += rc
			pMemory += rnj
			pCache += sd.params.AccessNJ
			if sd.cache.Fill(addr, write) {
				_, wnj := s.nvm.WriteWriteback()
				pMemory += wnj
			}
		}
	}

	if sd.pf != nil {
		if hit && sd.pfSkipHits {
			return stall, pCache, pMemory
		}
		if sd.agNJ != 0 {
			pCache += sd.agNJ
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
			pMemory = s.fastIssue(sd, stall, now, pMemory)
		}
	}
	return stall, pCache, pMemory
}

// fastDrain is drainPrefetches without the profiler hooks; the caller has
// already applied the minReady watermark check.
func (s *System) fastDrain(sd *side, now uint64, pCache, pMemory float64) (float64, float64) {
	min := uint64(noReady)
	for i := 0; i < len(sd.inflight); {
		e := sd.inflight[i]
		if e.readyAt > now {
			if e.readyAt < min {
				min = e.readyAt
			}
			i++
			continue
		}
		sd.removeInflight(i)
		if sd.cache.Contains(e.block) {
			sd.stats.InflightRedundant++
			continue
		}
		pCache += sd.params.AccessNJ // array write on promote
		if sd.cache.FillPrefetched(e.block) {
			_, wnj := s.nvm.WriteWriteback()
			pMemory += wnj
		}
	}
	sd.minReady = min
	return pCache, pMemory
}

// fastIssue is issuePrefetches specialized for prefetch-to-cache with the
// tracer, profiler, and ReissueOnExit queue pruned.
func (s *System) fastIssue(sd *side, busyCycles, now uint64, pMemory float64) float64 {
	memSize := uint64(s.cfg.NVM.SizeBytes)
	kept := sd.cands[:0]
candidates:
	for _, c := range sd.cands {
		b := c &^ (uint64(sd.params.BlockSize) - 1) // cache.BlockAddr
		if b >= memSize {
			continue
		}
		if sd.cache.Contains(b) {
			continue
		}
		if sd.findInflight(b) >= 0 {
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
		return pMemory
	}
	requested := len(kept)
	if requested > s.cfg.InitialDegree {
		requested = s.cfg.InitialDegree
	}
	granted := len(kept)
	if granted > sd.ctl.Degree() {
		granted = sd.ctl.Degree()
	}
	issue := granted
	if free := s.cfg.PrefetchBufEntries - len(sd.inflight); issue > free {
		issue = free
	}
	for i := 0; i < issue; i++ {
		rc, rnj := s.nvm.ReadPrefetch()
		pMemory += rnj
		rdy := now + busyCycles + rc
		sd.inflight = append(sd.inflight, pfReq{block: kept[i], readyAt: rdy})
		if rdy < sd.minReady {
			sd.minReady = rdy
		}
	}
	sd.ctl.Record(requested, granted)
	sd.stats.PrefetchIssued += uint64(issue)
	if requested > granted {
		sd.stats.PrefetchThrottled += uint64(requested - granted)
	}
	return pMemory
}

// runFastNoPF is the specialized loop for the no-prefetch corner (both
// prefetcher kinds none): the access path collapses to cache probe + demand
// fill, and the IPEX observation disappears entirely because a controller
// is only ever enabled together with its prefetcher.
func (s *System) runFastNoPF(cur *workload.Cursor) (Result, error) {
	acc := cur.Stream().Accesses()
	i := cur.Pos()
	completed := true
	inst, data := &s.inst, &s.data
	maxCycles := s.maxCycles
	capMaxNJ := s.cap.CapacityNJ()
	backupCut := s.cap.BackupCutoffNJ()
	leakCache, leakMem, leakCompute := s.leakCacheNJ, s.leakMemNJ, s.leakComputeNJ
	iAccessNJ := inst.params.AccessNJ
	dAccessNJ := data.params.AccessNJ

	var h hotState
	h.load(s)

	for i < len(acc) {
		a := acc[i]
		i++
		h.insts++

		pC, pM := h.pCache, h.pMemory

		var istall uint64
		hit := inst.cache.Access(a.PC, false)
		pC += iAccessNJ
		if !hit {
			rc, rnj := s.nvm.ReadDemand()
			istall = rc
			pM += rnj
			pC += iAccessNJ
			if inst.cache.Fill(a.PC, false) {
				_, wnj := s.nvm.WriteWriteback()
				pM += wnj
			}
		}
		cycles := uint64(1) + istall
		inst.stats.StallCycles += istall
		pCompute := energy.ComputeNJPerInst

		if a.HasData {
			var dstall uint64
			dhit := data.cache.Access(a.DataAddr, a.Write)
			pC += dAccessNJ
			if !dhit {
				rc, rnj := s.nvm.ReadDemand()
				dstall = rc
				pM += rnj
				pC += dAccessNJ
				if data.cache.Fill(a.DataAddr, a.Write) {
					_, wnj := s.nvm.WriteWriteback()
					pM += wnj
				}
			}
			cycles += dstall
			data.stats.StallCycles += dstall
		}

		// advanceOn, inlined — see runFast for the bit-identity notes.
		t := h.now
		if t < h.sampleEnd && h.sampleEnd-t >= cycles {
			hv := power.EnergyNJ(h.samplePow, cycles)
			if hv > 0 {
				if room := capMaxNJ - h.e; hv > room {
					hv = room
				}
				h.e += hv
			}
		} else {
			remaining := cycles
			for remaining > 0 {
				if t >= h.sampleEnd {
					h.samplePow = s.trace.PowerAt(t)
					h.sampleEnd = (t/power.SampleIntervalCycles + 1) * power.SampleIntervalCycles
				}
				chunk := h.sampleEnd - t
				if chunk > remaining {
					chunk = remaining
				}
				hv := power.EnergyNJ(h.samplePow, chunk)
				if hv > 0 {
					if room := capMaxNJ - h.e; hv > room {
						hv = room
					}
					h.e += hv
				}
				t += chunk
				remaining -= chunk
			}
		}
		fc := float64(cycles)
		pC += leakCache * fc
		pM += leakMem * fc
		pCompute += leakCompute * fc
		tot := pC + pM + pCompute
		if tot > 0 {
			h.e -= tot
			if h.e < 0 {
				h.e = 0
			}
		}
		h.cCache += pC
		h.cMemory += pM
		h.cCompute += pCompute
		h.pCache, h.pMemory = 0, 0
		h.now += cycles
		h.onCycles += cycles

		if h.e < backupCut { // cap.BelowBackup()
			cur.SetPos(i)
			h.sync(s)
			s.outage()
			h.load(s)
			if s.ctx != nil && s.ctx.Err() != nil {
				completed = false
				break
			}
		}

		if h.now >= maxCycles {
			completed = false
			break
		}
	}
	cur.SetPos(i)
	h.sync(s)
	return s.result(completed), nil
}
