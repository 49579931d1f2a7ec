// Package cache implements the volatile SRAM caches of the NVP: small
// set-associative write-back caches with LRU replacement, plus the per-cache
// prefetch buffer that holds prefetched blocks so they do not pollute the
// cache (the NVSRAMCache baseline organization the paper evaluates).
//
// Caches are volatile: a power failure wipes every block. The dirty blocks
// are JIT-checkpointed to NVM right before the outage, so the simulator asks
// the cache for its dirty count at backup time and wipes it at reboot.
package cache

import (
	"fmt"

	"ipex/internal/energy"
	"ipex/internal/trace"
)

// Stats counts cache activity.
type Stats struct {
	Accesses       uint64 // demand accesses (reads + writes)
	Misses         uint64 // demand misses (after prefetch-buffer lookup)
	BufHits        uint64 // demand misses served by the prefetch buffer
	Evictions      uint64
	DirtyEvictions uint64
	// Prefetched-line outcomes (prefetch-into-cache mode): a line filled
	// by FillPrefetched is "useful" on its first demand hit and "useless"
	// if evicted or wiped before one. PrefetchedWiped counts the subset
	// of useless lines lost to a power failure — the waste IPEX targets.
	PrefetchedUseful  uint64
	PrefetchedUseless uint64
	PrefetchedWiped   uint64
}

// MissRate returns Misses/Accesses.
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	// pfUnused marks a prefetched line that has not yet served a demand
	// access; cleared on first hit, classified on eviction/wipe.
	pfUnused bool
	used     uint64 // LRU timestamp
}

// Cache is one set-associative write-back SRAM cache.
type Cache struct {
	params energy.CacheParams
	// lines is the flat line array: set s occupies
	// lines[s*ways : (s+1)*ways]. One flat slice instead of a [][]line
	// keeps the per-access probe to a single dependent load — the set
	// lookup is an index computation, not a slice-header fetch.
	lines   []line
	ways    int
	nsets   int
	blockLg uint
	setLg   uint // log2(nsets), precomputed for the per-access tag shift
	setMask uint64
	// hint[set] is the way of that set's last hit or fill. Demand streams
	// re-touch the same line often, so probing it first usually resolves
	// the tag match in one compare instead of a full way scan. Purely a
	// search-order optimization: a set holds at most one line per tag, so
	// hit/miss outcomes, LRU updates, and statistics are unchanged.
	hint  []uint32
	tick  uint64
	stats Stats
	// tr, when non-nil, receives prefetched-line lifecycle events
	// (first use, wiped by outage); side labels them. Both emission
	// sites live on already-rare branches, so tracing off costs nothing.
	tr   *trace.Tracer
	side string
}

// New builds a cache from the given geometry. Size must be a multiple of
// ways*blockSize and the set count a power of two.
func New(params energy.CacheParams) (*Cache, error) {
	if params.BlockSize <= 0 || params.Ways <= 0 || params.SizeBytes <= 0 {
		return nil, fmt.Errorf("cache: invalid geometry %+v", params)
	}
	blocks := params.SizeBytes / params.BlockSize
	if blocks*params.BlockSize != params.SizeBytes {
		return nil, fmt.Errorf("cache: size %dB not a multiple of block size %dB", params.SizeBytes, params.BlockSize)
	}
	if blocks%params.Ways != 0 {
		return nil, fmt.Errorf("cache: %d blocks not divisible by %d ways", blocks, params.Ways)
	}
	nsets := blocks / params.Ways
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d is not a power of two", nsets)
	}
	blockLg := uint(0)
	for 1<<blockLg < params.BlockSize {
		blockLg++
	}
	if 1<<blockLg != params.BlockSize {
		return nil, fmt.Errorf("cache: block size %d is not a power of two", params.BlockSize)
	}
	return &Cache{
		params:  params,
		lines:   make([]line, nsets*params.Ways),
		ways:    params.Ways,
		nsets:   nsets,
		blockLg: blockLg,
		setLg:   uintLog2(nsets),
		setMask: uint64(nsets - 1),
		hint:    make([]uint32, nsets),
	}, nil
}

// MustNew is New for geometries known to be valid.
func MustNew(params energy.CacheParams) *Cache {
	c, err := New(params)
	if err != nil {
		panic(err)
	}
	return c
}

// Params returns the cache geometry and energy parameters.
func (c *Cache) Params() energy.CacheParams { return c.params }

// SetTracer attaches an event tracer; side ("icache"/"dcache") labels the
// emitted events. A nil tracer disables emission.
func (c *Cache) SetTracer(t *trace.Tracer, side string) {
	c.tr = t
	c.side = side
}

// blockOf reconstructs the block address of the line at (set, way) — the
// inverse of index(), used only on trace-emission paths.
func (c *Cache) blockOf(set int, l *line) uint64 {
	return (l.tag<<c.setLg | uint64(set)) << c.blockLg
}

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// BlockAddr returns the block-aligned address containing addr.
func (c *Cache) BlockAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.params.BlockSize) - 1)
}

func (c *Cache) index(block uint64) (set int, tag uint64) {
	b := block >> c.blockLg
	return int(b & c.setMask), b >> c.setLg
}

func uintLog2(n int) uint {
	lg := uint(0)
	for 1<<lg < n {
		lg++
	}
	return lg
}

// Access performs a demand access to addr. It returns whether it hit. On a
// write hit the line is marked dirty. A miss does NOT fill the cache; the
// caller decides how the fill happens (from the prefetch buffer or NVM) and
// calls Fill.
//
// The body is just the hinted-way probe, so the dominant
// re-touch-the-same-line case is one short call with no way scan;
// everything else lives in accessSlow. The probe is still too large to
// inline (go build -gcflags=-m=2 reports cost 149 against the budget of
// 80). index(addr) needs no prior block alignment: the block-offset bits
// are shifted away anyway.
func (c *Cache) Access(addr uint64, write bool) bool {
	c.stats.Accesses++
	c.tick++
	set, tag := c.index(addr)
	h := int(c.hint[set])
	if l := &c.lines[set*c.ways+h]; l.valid && l.tag == tag && !l.pfUnused {
		l.used = c.tick
		if write {
			l.dirty = true
		}
		return true
	}
	// The hinted way either missed or holds a prefetched line awaiting its
	// first-use classification; both are rare enough for the out-of-line
	// path.
	return c.accessSlow(set, tag, h, write)
}

// accessSlow finishes an access the hinted probe could not: it
// re-examines the hinted way (it may have matched but needed first-use
// bookkeeping), then scans the remaining ways.
func (c *Cache) accessSlow(set int, tag uint64, h int, write bool) bool {
	lines := c.lines[set*c.ways : set*c.ways+c.ways]
	if l := &lines[h]; l.valid && l.tag == tag {
		if c.touch(l, write) && c.tr != nil {
			c.traceFirstUse(set, l)
		}
		return true
	}
	for i := range lines {
		if i == h {
			continue
		}
		l := &lines[i]
		if l.valid && l.tag == tag {
			c.hint[set] = uint32(i)
			if c.touch(l, write) && c.tr != nil {
				c.traceFirstUse(set, l)
			}
			return true
		}
	}
	c.stats.Misses++
	return false
}

// touch applies a demand hit to a resident line and reports whether this
// was the first use of a prefetched line. Emission lives in the caller so
// touch stays within the inlining budget — it runs on every cache hit.
func (c *Cache) touch(l *line, write bool) bool {
	l.used = c.tick
	if write {
		l.dirty = true
	}
	if l.pfUnused {
		l.pfUnused = false
		c.stats.PrefetchedUseful++
		return true
	}
	return false
}

// traceFirstUse emits the first-use event for a prefetched line; only
// reached with a tracer attached.
func (c *Cache) traceFirstUse(set int, l *line) {
	c.tr.Emit(trace.Event{Kind: trace.KindPrefetchFirstUse,
		Side: c.side, Block: c.blockOf(set, l), Detail: "cache"})
}

// NoteBufHit records that the miss just reported by Access was served from
// the prefetch buffer (Stats bookkeeping only).
func (c *Cache) NoteBufHit() { c.stats.BufHits++ }

// Contains reports whether the block containing addr is present, without
// touching statistics or LRU state.
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	lines := c.lines[set*c.ways : set*c.ways+c.ways]
	if l := &lines[c.hint[set]]; l.valid && l.tag == tag {
		return true
	}
	for i := range lines {
		l := &lines[i]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Fill inserts the block containing addr, evicting the LRU line of its set
// if needed. It returns whether a dirty victim was evicted (the caller must
// write it back to NVM). If write is true the new line starts dirty.
func (c *Cache) Fill(addr uint64, write bool) (evictedDirty bool) {
	return c.fill(addr, write, false)
}

// FillPrefetched inserts a prefetched block (clean, marked unused) — the
// prefetch-into-cache organization of the paper's Figures 5/6, where a
// power failure wipes not-yet-used prefetched blocks out of the cache. The
// return value reports a dirty eviction exactly like Fill.
func (c *Cache) FillPrefetched(addr uint64) (evictedDirty bool) {
	return c.fill(addr, false, true)
}

func (c *Cache) fill(addr uint64, write, prefetched bool) (evictedDirty bool) {
	c.tick++
	set, tag := c.index(addr)
	lines := c.lines[set*c.ways : set*c.ways+c.ways]
	victim := 0
	for i := range lines {
		l := &lines[i]
		if l.valid && l.tag == tag {
			// Already present (e.g. filled by an overlapping path); just
			// refresh. A prefetched refill never downgrades a demand line
			// to unused.
			c.hint[set] = uint32(i)
			l.used = c.tick
			if write {
				l.dirty = true
			}
			return false
		}
		if !l.valid {
			victim = i
			break
		}
		if lines[i].used < lines[victim].used {
			victim = i
		}
	}
	v := &lines[victim]
	if v.valid {
		c.stats.Evictions++
		if v.dirty {
			c.stats.DirtyEvictions++
			evictedDirty = true
		}
		if v.pfUnused {
			c.stats.PrefetchedUseless++
		}
	}
	*v = line{tag: tag, valid: true, dirty: write, pfUnused: prefetched, used: c.tick}
	c.hint[set] = uint32(victim)
	return evictedDirty
}

// DirtyCount returns the number of dirty lines currently resident without
// allocating — what the outage path needs when only the checkpoint size
// matters (ideal mode, telemetry).
func (c *Cache) DirtyCount() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].dirty {
			n++
		}
	}
	return n
}

// DirtyBlocks returns the number of dirty lines currently resident; the JIT
// checkpoint must write each of them to NVM.
func (c *Cache) DirtyBlocks() int { return c.DirtyCount() }

// ValidBlocks returns the number of valid lines currently resident.
func (c *Cache) ValidBlocks() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}

// DirtyAddrs returns the block addresses of all dirty lines; the JIT
// checkpoint writes each to NVM and the reboot path restores them.
func (c *Cache) DirtyAddrs() []uint64 {
	return c.DirtyAddrsAppend(nil)
}

// DirtyAddrsAppend appends the dirty block addresses to dst (in the same
// set-major order DirtyAddrs uses) and returns the extended slice. Passing
// a reused scratch buffer makes the per-outage checkpoint allocation-free.
func (c *Cache) DirtyAddrsAppend(dst []uint64) []uint64 {
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].dirty {
			si := i / c.ways
			block := (c.lines[i].tag<<c.setLg | uint64(si)) << c.blockLg
			dst = append(dst, block)
		}
	}
	return dst
}

// AppendResidentBlocks appends the block addresses of every valid line to
// dst (set-major order) and returns the extended slice. The attribution
// profiler snapshots a cache with it right before an outage wipe to learn
// which later demand misses are re-execution backfill.
func (c *Cache) AppendResidentBlocks(dst []uint64) []uint64 {
	for i := range c.lines {
		if c.lines[i].valid {
			dst = append(dst, c.blockOf(i/c.ways, &c.lines[i]))
		}
	}
	return dst
}

// DrainPrefetchStats classifies still-resident prefetched-unused lines as
// useless (end-of-run accounting; they are not wiped). Lines stay valid.
func (c *Cache) DrainPrefetchStats() {
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].pfUnused {
			c.lines[i].pfUnused = false
			c.stats.PrefetchedUseless++
		}
	}
}

// CleanDirty marks every line clean; called after a JIT checkpoint has
// persisted the dirty blocks.
func (c *Cache) CleanDirty() {
	for i := range c.lines {
		c.lines[i].dirty = false
	}
}

// Reset restores the cache to its just-constructed state — every line
// invalid, hints and the LRU clock zeroed, statistics cleared — without
// touching the backing arrays. The run arena recycles caches of identical
// geometry with it, so a steady-state run allocates nothing. The tracer
// attachment is cleared too; the next run re-attaches its own (or none).
func (c *Cache) Reset() {
	for i := range c.lines {
		c.lines[i] = line{}
	}
	for i := range c.hint {
		c.hint[i] = 0
	}
	c.tick = 0
	c.stats = Stats{}
	c.tr = nil
	c.side = ""
}

// Wipe invalidates every line: the effect of a power failure on volatile
// SRAM. Prefetched-but-unused lines lost here are the energy waste IPEX
// exists to prevent; they are counted as both useless and wiped.
func (c *Cache) Wipe() {
	for i := range c.lines {
		if c.lines[i].valid && c.lines[i].pfUnused {
			c.stats.PrefetchedUseless++
			c.stats.PrefetchedWiped++
			if c.tr != nil {
				c.tr.Emit(trace.Event{Kind: trace.KindPrefetchWipe,
					Side: c.side, Block: c.blockOf(i/c.ways, &c.lines[i]), Detail: "cache"})
			}
		}
		c.lines[i] = line{}
	}
}
