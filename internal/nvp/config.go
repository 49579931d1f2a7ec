// Package nvp implements the nonvolatile-processor system simulator: a
// single in-order core (200 MHz) with volatile ICache/DCache, per-cache
// hardware prefetchers and prefetch buffers, optional IPEX controllers, an
// on-chip NVM main memory, and a capacitor fed by a replayed power trace.
// The system JIT-checkpoints its volatile state when the voltage monitor
// fires and resumes from the failure point after recharging — the
// NVSRAMCache organization the paper builds on.
//
// The simulation is trace-driven and cycle-approximate: every committed
// instruction advances time by its base cycle plus any miss stalls, and
// energy is integrated per event (dynamic) and per elapsed on-cycle
// (leakage). Performance is wall-clock time — on-time plus recharge time —
// under a fixed input-energy trace, exactly the paper's methodology for
// fair cross-configuration comparison.
package nvp

import (
	"fmt"
	"math"

	"ipex/internal/capacitor"
	"ipex/internal/core"
	"ipex/internal/energy"
	"ipex/internal/fault"
	"ipex/internal/prefetch"
	"ipex/internal/trace"
)

// Config assembles one system. The zero value is not runnable; start from
// DefaultConfig.
type Config struct {
	// ICacheSize/DCacheSize are per-cache capacities in bytes (paper
	// default 2 kB each); Ways the associativity (default 4).
	ICacheSize int
	DCacheSize int
	Ways       int

	// PrefetchBufEntries is the per-cache prefetch buffer depth in 16 B
	// entries (paper default 4 = 64 B). In the default prefetch-to-cache
	// organization the buffer stages in-flight prefetch reads (bounding
	// the outstanding count); in buffer mode it also holds completed
	// blocks until use.
	PrefetchBufEntries int

	// PrefetchToCache selects where completed prefetches live. True (the
	// default) follows the paper's Figures 5/6: prefetched blocks are
	// loaded into the volatile cache, where an outage wipes the
	// not-yet-used ones — the energy waste IPEX targets. False keeps
	// completed blocks in the small prefetch buffer until first use
	// (§6's pollution-free variant), which bounds outage losses to the
	// buffer size; it is kept as an ablation.
	PrefetchToCache bool

	// IPrefetcher/DPrefetcher choose the per-cache prefetcher
	// (prefetch.KindNone disables one side).
	IPrefetcher prefetch.Kind
	DPrefetcher prefetch.Kind

	// IPrefetcherFactory/DPrefetcherFactory, when non-nil, override the
	// Kind selection with a caller-built prefetcher. A factory (rather
	// than an instance) keeps runs independent: every simulation gets a
	// fresh prefetcher. This is how user prefetchers integrate with IPEX
	// (see examples/customprefetcher).
	IPrefetcherFactory func() prefetch.Prefetcher
	DPrefetcherFactory func() prefetch.Prefetcher

	// IPrefetcherID/DPrefetcherID name the corresponding factory for
	// content-identity purposes: a func has no stable serializable
	// identity, so journaling and result caching key factory-built
	// prefetchers by this string instead. The name must change whenever
	// the factory's behaviour changes (treat it like a version tag, e.g.
	// "bitmap/v2"); two different factories under one ID would replay each
	// other's results. Cells whose factory is installed without an ID are
	// refused by the journal and the result cache — they always simulate.
	// Setting an ID without its factory is a configuration error.
	IPrefetcherID string
	DPrefetcherID string

	// InitialDegree is the conventional prefetch degree (R_ipd, default 2).
	InitialDegree int

	// IPEXInst/IPEXData attach an IPEX controller to the instruction/data
	// prefetcher. IPEX holds the controller parameters (shared by both).
	IPEXInst bool
	IPEXData bool
	IPEX     core.Config

	// NVM selects the main-memory technology/size parameters.
	NVM energy.NVMParams

	// Capacitor holds the storage and voltage-monitor parameters.
	Capacitor capacitor.Config

	// Ideal zeroes all backup/restore costs: the paper's NVSRAMCache
	// (ideal) upper bound (Fig. 11).
	Ideal bool

	// DupSuppress enables the §5.1 optimization: a miss that finds an
	// in-flight prefetch for its block waits for it instead of issuing a
	// duplicate NVM request. On by default; the ablation turns it off.
	DupSuppress bool

	// ReissueOnExit implements the extension §5.1 leaves as future work:
	// when IPEX returns to high-performance mode (an upward threshold
	// crossing), the prefetches it throttled earlier in the cycle are
	// reissued from a small queue. Off by default, like the paper.
	ReissueOnExit bool

	// GateAddressGen implements the §5.2 optimization for complex
	// prefetchers: when IPEX has throttled the degree to zero, the
	// prefetcher's energy-consuming address generation (table lookups) is
	// disabled entirely rather than merely discarding its candidates. It
	// only affects prefetchers that implement prefetch.AddressGenCoster
	// and only fires while an attached IPEX holds the degree at 0. Off by
	// default: the paper's evaluated system (Tables 3/4) does not include
	// it; §5.2 presents it as an integration opportunity.
	GateAddressGen bool

	// RecordCycles collects a per-power-cycle log in Result.PowerCycleLog
	// (cycle lengths, progress, prefetch/throttle counts, doomed
	// prefetches) for analyses like the paper's Figure 7 walkthrough. Off
	// by default: long weak-trace runs can accumulate thousands of cycles.
	RecordCycles bool

	// MaxCycles aborts a run that exceeds this wall-clock budget (e.g. a
	// power trace too weak to ever finish). 0 means the default cap.
	MaxCycles uint64

	// Tracer, when non-nil, receives the run's event stream (power-cycle
	// boundaries, checkpoints, prefetch lifecycle, IPEX decisions) as JSON
	// Lines. One tracer serves one run at a time: it carries the run's
	// cycle clock. Nil (the default) costs nothing — every emission site
	// is a single nil compare.
	Tracer *trace.Tracer

	// Metrics, when non-nil, accumulates named end-of-run counters
	// (prefetch outcomes, energy split, outage counts). A registry may be
	// shared across runs to aggregate a sweep. Nil costs nothing.
	Metrics *trace.Registry

	// Faults, when non-nil with at least one active injector family,
	// applies the deterministic fault schedule it describes: a non-ideal
	// voltage monitor feeding IPEX, failing checkpoint writes, and harvest
	// anomalies (see internal/fault). Nil — or a config with every family
	// disabled — leaves the simulation bit-identical to a fault-free run.
	// Result.Faults reports the injected-fault counts.
	Faults *fault.Config

	// Paranoid enables the runtime invariant checker: per-power-cycle
	// energy-conservation and forward-progress checks plus end-of-run stats
	// consistency, reported in Result.Invariants. It never alters simulated
	// behaviour — a violation is diagnosed, not repaired.
	Paranoid bool

	// DisableFastPaths forces the generic per-access interpreter loop even
	// for configurations eligible for a specialized fast path (see
	// fastloop.go). The fast paths are asserted bit-identical to the
	// generic loop by the golden suite; this knob exists for that
	// cross-check, for per-path benchmarking, and as an escape hatch while
	// diagnosing a suspected fast-path divergence. Off (fast paths on) by
	// default.
	DisableFastPaths bool

	// Profile enables the cycle/energy attribution profiler: every simulated
	// cycle and every nanojoule drained from the capacitor is charged to a
	// category (compute, miss stalls, checkpoint, restore, prefetch traffic,
	// outage backfill, leakage, dead time), accumulated per power cycle and
	// in aggregate in Result.Profile. Observer-only: results are unchanged
	// with it on, and off (the default) it costs one nil compare per hook.
	// Combine with Paranoid to cross-check the profiler's drain ledger
	// against the shadow energy ledger bit-for-bit.
	Profile bool
}

// DefaultMaxCycles is the default wall-clock abort budget (2.5 s of
// simulated time at 200 MHz).
const DefaultMaxCycles = 500_000_000

// DefaultConfig returns the paper's Table 1 system: 2 kB 4-way caches,
// 4-entry prefetch buffers, sequential + stride prefetchers at degree 2,
// 16 MB ReRAM, 0.47 µF capacitor, IPEX off.
func DefaultConfig() Config {
	capCfg := capacitor.DefaultConfig()
	return Config{
		ICacheSize:         energy.DefaultCacheSize,
		DCacheSize:         energy.DefaultCacheSize,
		Ways:               4,
		PrefetchBufEntries: 4,
		PrefetchToCache:    true,
		IPrefetcher:        prefetch.KindSequential,
		DPrefetcher:        prefetch.KindStride,
		InitialDegree:      2,
		IPEX:               core.DefaultConfig(capCfg.Vbackup, capCfg.Von),
		NVM:                energy.NVMFor(energy.ReRAM, 16<<20),
		Capacitor:          capCfg,
		DupSuppress:        true,
		MaxCycles:          DefaultMaxCycles,
	}
}

// WithIPEX returns a copy of c with IPEX attached to both prefetchers.
func (c Config) WithIPEX() Config {
	c.IPEXInst = true
	c.IPEXData = true
	c.IPEX.Enabled = true
	return c
}

// WithIPEXData returns a copy of c with IPEX attached to the data
// prefetcher only (the paper's "+IPEX for Default Data Prefetcher" bars).
func (c Config) WithIPEXData() Config {
	c.IPEXInst = false
	c.IPEXData = true
	c.IPEX.Enabled = true
	return c
}

// WithoutPrefetch returns a copy of c with both prefetchers disabled (the
// "NVSRAMCache (No Prefetcher)" bars).
func (c Config) WithoutPrefetch() Config {
	c.IPrefetcher = prefetch.KindNone
	c.DPrefetcher = prefetch.KindNone
	c.IPEXInst = false
	c.IPEXData = false
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ICacheSize <= 0 || c.DCacheSize <= 0 {
		return fmt.Errorf("nvp: cache sizes must be positive")
	}
	if c.Ways <= 0 {
		return fmt.Errorf("nvp: associativity must be positive")
	}
	if c.PrefetchBufEntries <= 0 {
		return fmt.Errorf("nvp: prefetch buffer needs at least one entry")
	}
	if c.InitialDegree < 1 || c.InitialDegree > prefetch.MaxDegree {
		return fmt.Errorf("nvp: initial degree %d out of [1,%d]", c.InitialDegree, prefetch.MaxDegree)
	}
	// A factory ID without its factory would make two behaviourally
	// identical configs hash differently (and suggests the caller thinks a
	// factory is installed when it is not); reject it up front.
	if c.IPrefetcherID != "" && c.IPrefetcherFactory == nil {
		return fmt.Errorf("nvp: IPrefetcherID %q set without an IPrefetcherFactory", c.IPrefetcherID)
	}
	if c.DPrefetcherID != "" && c.DPrefetcherFactory == nil {
		return fmt.Errorf("nvp: DPrefetcherID %q set without a DPrefetcherFactory", c.DPrefetcherID)
	}
	// A factory overrides its side's Kind; without one, the Kind is what
	// runs and must name a real prefetcher.
	if c.IPrefetcherFactory == nil && !prefetch.Known(c.IPrefetcher) {
		return fmt.Errorf("nvp: unknown instruction prefetcher %q", c.IPrefetcher)
	}
	if c.DPrefetcherFactory == nil && !prefetch.Known(c.DPrefetcher) {
		return fmt.Errorf("nvp: unknown data prefetcher %q", c.DPrefetcher)
	}
	if err := validateNVM(c.NVM); err != nil {
		return err
	}
	if err := c.Capacitor.Validate(); err != nil {
		return err
	}
	if c.IPEXInst || c.IPEXData {
		if err := c.IPEX.Validate(); err != nil {
			return err
		}
	}
	if err := c.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// validateNVM checks the memory parameters. They arrive verbatim over the
// network (the /v1/run body carries the full NVMParams), so every field is
// checked, not just the ones NVMFor could get wrong. NaN is rejected
// explicitly: it fails every comparison and would poison the energy ledger.
func validateNVM(p energy.NVMParams) error {
	switch p.Tech {
	case energy.ReRAM, energy.STTRAM, energy.PCM:
	default:
		return fmt.Errorf("nvp: unknown NVM technology %v (want ReRAM, STTRAM, or PCM)", p.Tech)
	}
	if p.SizeBytes <= 0 {
		return fmt.Errorf("nvp: NVM size must be positive, got %d", p.SizeBytes)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"read energy", p.ReadNJ}, {"write energy", p.WriteNJ}, {"leakage", p.LeakMW}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Errorf("nvp: NVM %s must be non-negative and finite, got %g", f.name, f.v)
		}
	}
	if p.ReadCycles == 0 || p.WriteCycles == 0 {
		return fmt.Errorf("nvp: NVM read/write latency must be at least one cycle, got %d/%d", p.ReadCycles, p.WriteCycles)
	}
	return nil
}
