package nvp

import (
	"ipex/internal/profile"
)

// profiler is the in-simulator attribution engine (Config.Profile): it
// charges every simulated cycle and every pending-energy charge to a
// profile category as the simulator spends it, closes one CycleRecord per
// power cycle, and keeps a chronological capacitor-drain ledger that is
// bit-identical to the paranoid shadow ledger by construction — both
// accumulate the identical applied-drain value sequence inside capConsume.
//
// Like the tracer, fault runtime, and paranoid checker, a nil *profiler
// means profiling is off and every integration site costs one nil compare;
// the profiler itself only observes (its wipe-sets are private bookkeeping),
// so enabling it never changes a Result.
type profiler struct {
	rep profile.Report      // aggregate under construction (PowerCycles grows per flush)
	cyc profile.CycleRecord // current power cycle's attribution

	// recStart is the absolute cycle the current record began at.
	recStart uint64
	// prevOut snapshots the prefetch-outcome counters at the last record
	// boundary so each record carries its own delta.
	prevOut profile.PrefetchOutcomes

	// accCat is the energy category of the demand access currently being
	// simulated: EIMiss/EDMiss by side, upgraded to EBackfill when the
	// access's NVM demand read re-fetches a block a power failure wiped.
	// Its miss-path charges and the access's stall cycles follow it.
	accCat profile.EnergyCat

	// wipe holds, per side (0=inst, 1=data), the blocks that were resident
	// in the cache when the last outage(s) wiped it and have not come back
	// since: the next demand NVM read of such a block is re-execution
	// backfill. Blocks leave the set when anything re-fills them — the
	// restore walk, a prefetch, or the classified demand read itself.
	wipe    [2]map[uint64]struct{}
	scratch []uint64 // reused resident-block buffer for captureWipe
}

func newProfiler() *profiler {
	return &profiler{
		wipe: [2]map[uint64]struct{}{make(map[uint64]struct{}), make(map[uint64]struct{})},
	}
}

// sideIdx maps a side to its wipe-set index.
func (s *System) sideIdx(sd *side) int {
	if sd == &s.inst {
		return 0
	}
	return 1
}

// energy charges nj to an energy category of the current record.
func (p *profiler) energy(cat profile.EnergyCat, nj float64) {
	p.cyc.EnergyNJ[cat] += nj
}

// noteDrain records one applied capacitor drain (the amount Consume
// actually removed) in the per-cycle and whole-run ledgers. Called from
// capConsume with exactly the value the paranoid shadow ledger adds, so the
// two stay bitwise equal at every boundary.
func (p *profiler) noteDrain(applied float64) {
	p.cyc.LedgerNJ += applied
	p.rep.LedgerNJ += applied
}

// beginAccess opens a demand access: the default miss category follows the
// side, and the base cache-array probe is execution cost (ECompute) — every
// access pays it, hit or miss.
func (p *profiler) beginAccess(s *System, sd *side) {
	if sd == &s.inst {
		p.accCat = profile.EIMiss
	} else {
		p.accCat = profile.EDMiss
	}
	p.cyc.EnergyNJ[profile.ECompute] += sd.params.AccessNJ
}

// accessNJ charges miss-path energy (promotion probes, fill writebacks) to
// the current access's category.
func (p *profiler) accessNJ(nj float64) {
	p.cyc.EnergyNJ[p.accCat] += nj
}

// noteDemandRead classifies the access's NVM demand read: re-fetching a
// block the last outage wiped is backfill, anything else stays a plain
// miss. The read energy (plus the fill probe) follows the classification.
func (p *profiler) noteDemandRead(s *System, sd *side, block uint64, nj float64) {
	w := p.wipe[s.sideIdx(sd)]
	if _, ok := w[block]; ok {
		delete(w, block)
		p.accCat = profile.EBackfill
	}
	p.cyc.EnergyNJ[p.accCat] += nj
}

// unwipe removes a block from a side's backfill candidates (it came back by
// some non-demand path: restore walk or a completed prefetch).
func (p *profiler) unwipe(s *System, sd *side, block uint64) {
	delete(p.wipe[s.sideIdx(sd)], block)
}

// endAccess attributes the access's stall cycles to the cycle category its
// energy classification selected.
func (p *profiler) endAccess(stall uint64) {
	if stall == 0 {
		return
	}
	switch p.accCat {
	case profile.EIMiss:
		p.cyc.Cycles[profile.CycIMissStall] += stall
	case profile.EDMiss:
		p.cyc.Cycles[profile.CycDMissStall] += stall
	default:
		p.cyc.Cycles[profile.CycBackfill] += stall
	}
}

// captureWipe snapshots both caches' resident blocks right before a power
// failure wipes them; those blocks become backfill candidates.
func (p *profiler) captureWipe(s *System) {
	for i, sd := range [2]*side{&s.inst, &s.data} {
		p.scratch = sd.cache.AppendResidentBlocks(p.scratch[:0])
		w := p.wipe[i]
		for _, b := range p.scratch {
			w[b] = struct{}{}
		}
	}
}

// profOutcomes totals the prefetch-outcome counters as they stand now, in a
// form valid for both prefetch organizations (the counters of the unused
// organization stay zero). Useless supersets wiped in both the cache and
// buffer stats, so "inaccurate" — dead-useless for any reason other than an
// outage — is the difference, plus late (redundant) completions.
func profOutcomes(s *System) profile.PrefetchOutcomes {
	var o profile.PrefetchOutcomes
	for _, sd := range [2]*side{&s.inst, &s.data} {
		cs, bs := sd.cache.Stats(), sd.buf.Stats()
		o.Issued += sd.stats.PrefetchIssued
		o.Useful += cs.PrefetchedUseful + sd.stats.InflightServed + bs.UsefulEvicted
		o.Wiped += cs.PrefetchedWiped + bs.WipedUnused + sd.stats.InflightWiped
		o.Inaccurate += cs.PrefetchedUseless - cs.PrefetchedWiped +
			bs.UselessEvicted - bs.WipedUnused + sd.stats.InflightRedundant
	}
	return o
}

// flushRecord closes the current power-cycle record. Called at the same
// boundary the paranoid checker closes its per-cycle ledger (after the
// successor's restore walk is charged) and once more for the final partial
// cycle, so record ledgers and shadow-ledger intervals coincide exactly.
func (p *profiler) flushRecord(s *System) {
	p.cyc.Index = uint64(len(p.rep.PowerCycles))
	p.cyc.StartCycle = p.recStart
	now := profOutcomes(s)
	p.cyc.Prefetch = now.Sub(p.prevOut)
	p.prevOut = now
	for i := range p.cyc.Cycles {
		p.rep.Cycles[i] += p.cyc.Cycles[i]
	}
	for i := range p.cyc.EnergyNJ {
		p.rep.EnergyNJ[i] += p.cyc.EnergyNJ[i]
	}
	p.rep.PowerCycles = append(p.rep.PowerCycles, p.cyc)
	p.recStart = s.now
	p.cyc = profile.CycleRecord{}
}

// finish flushes the final partial cycle and returns the completed report.
// Must run after the end-of-run stat drains so the aggregate outcome split
// matches the Result's counters.
func (p *profiler) finish(s *System) *profile.Report {
	p.flushRecord(s)
	rep := p.rep
	rep.Insts = s.insts
	rep.TotalCycles = s.now
	rep.Prefetch = p.prevOut
	rep.PrefetchReadNJ = s.cfg.NVM.ReadNJ
	return &rep
}
