// Package ipex is the public API of the IPEX reproduction: a trace-driven
// simulator of a batteryless, energy-harvesting nonvolatile processor (NVP)
// with volatile caches, hardware prefetchers, and the paper's
// Intermittence-aware Prefetching EXtension ("Rethinking Prefetching for
// Intermittent Computing", ISCA 2025).
//
// Quickstart:
//
//	trace := ipex.GenerateTrace(ipex.RFHome, 0, 1)
//	base, _ := ipex.Run("fft", 1.0, trace, ipex.DefaultConfig())
//	with, _ := ipex.Run("fft", 1.0, trace, ipex.DefaultConfig().WithIPEX())
//	fmt.Printf("IPEX speedup: %.3f\n", float64(base.Cycles)/float64(with.Cycles))
//
// The package re-exports the simulator's configuration and result types; the
// paper's full evaluation lives in cmd/experiments, and DESIGN.md maps every
// figure and table to its generator.
package ipex

import (
	"context"
	"io"

	"ipex/internal/capacitor"
	"ipex/internal/core"
	"ipex/internal/energy"
	"ipex/internal/experiments"
	"ipex/internal/fault"
	"ipex/internal/nvp"
	"ipex/internal/power"
	"ipex/internal/prefetch"
	"ipex/internal/profile"
	"ipex/internal/trace"
	"ipex/internal/workload"
)

// Config assembles one simulated system; see DefaultConfig for the paper's
// Table-1 defaults and the WithIPEX/WithIPEXData/WithoutPrefetch helpers for
// the evaluated variants.
type Config = nvp.Config

// IPEXConfig parameterises the IPEX controller inside a Config.
type IPEXConfig = core.Config

// Result is the outcome of one simulation run.
type Result = nvp.Result

// SideStats carries the per-cache-side statistics of a Result.
type SideStats = nvp.SideStats

// Breakdown is the consumed-energy split (cache/memory/compute/backup).
type Breakdown = energy.Breakdown

// Trace is a replayable harvested-power recording (one average-power sample
// per 10 µs).
type Trace = power.Trace

// Source selects a synthetic ambient-energy source.
type Source = power.Source

// The four synthetic sources the paper evaluates.
const (
	RFHome   = power.RFHome
	RFOffice = power.RFOffice
	Solar    = power.Solar
	Thermal  = power.Thermal
)

// NVMTech selects the main-memory technology.
type NVMTech = energy.NVMTech

// The three NVM technologies of the paper's Figure 21.
const (
	ReRAM  = energy.ReRAM
	STTRAM = energy.STTRAM
	PCM    = energy.PCM
)

// Workload is a deterministic application access-stream generator.
// Implement it to simulate your own firmware (see examples/sensorlogger).
type Workload = workload.Generator

// Access is one committed instruction of a Workload stream.
type Access = workload.Access

// Prefetcher is the degree-controlled prefetcher interface; implement it
// and install a factory in Config.IPrefetcherFactory/DPrefetcherFactory to
// run (and IPEX-throttle) a custom prefetcher through Run. A factory is a
// func and has no content identity, so its runs are never journaled,
// cached or sent to ipexd.
type Prefetcher = prefetch.Prefetcher

// PrefetchEvent is the demand-access observation a Prefetcher receives.
type PrefetchEvent = prefetch.Event

// MaxPrefetchDegree is the architectural cap on the prefetch degree.
const MaxPrefetchDegree = prefetch.MaxDegree

// PrefetcherKind names a built-in prefetcher for Config.IPrefetcher /
// Config.DPrefetcher.
type PrefetcherKind = prefetch.Kind

// The built-in prefetchers: the paper's six (Tables 1, 3, 4) plus AMPM
// from its related work.
const (
	NoPrefetcher         PrefetcherKind = prefetch.KindNone
	SequentialPrefetcher PrefetcherKind = prefetch.KindSequential
	StridePrefetcher     PrefetcherKind = prefetch.KindStride
	MarkovPrefetcher     PrefetcherKind = prefetch.KindMarkov
	TIFSPrefetcher       PrefetcherKind = prefetch.KindTIFS
	GHBPrefetcher        PrefetcherKind = prefetch.KindGHB
	BOPrefetcher         PrefetcherKind = prefetch.KindBO
	AMPMPrefetcher       PrefetcherKind = prefetch.KindAMPM
)

// DefaultConfig returns the paper's Table-1 system: 2 kB 4-way caches,
// 4-entry prefetch buffers, sequential + stride prefetchers at degree 2,
// 16 MB ReRAM, a 0.47 µF capacitor, and IPEX disabled.
func DefaultConfig() Config { return nvp.DefaultConfig() }

// NVMFor returns main-memory parameters for a technology and capacity,
// usable as Config.NVM.
func NVMFor(tech NVMTech, sizeBytes int64) energy.NVMParams {
	return energy.NVMFor(tech, sizeBytes)
}

// Workloads lists the 20 benchmark names.
func Workloads() []string { return workload.Names() }

// NewWorkload builds the named benchmark's generator; scale multiplies its
// instruction count (<= 0 means 1.0).
func NewWorkload(name string, scale float64) (Workload, error) {
	return workload.New(name, scale)
}

// GenerateTrace synthesizes a power trace for a source; n <= 0 uses the
// default length (0.5 s). The same (source, n, seed) always produces the
// identical trace.
func GenerateTrace(src Source, n int, seed uint64) *Trace {
	return power.Generate(src, n, seed)
}

// LoadTrace reads a recorded power log in the paper's text format (one
// average-power value in watts per line; '#' comments allowed).
func LoadTrace(name string, r io.Reader) (*Trace, error) {
	return power.Load(name, r)
}

// OutageEstimate is the capacitor-only outage analysis of a power trace.
type OutageEstimate = power.OutageEstimate

// AnalyzeTrace estimates outage behaviour for a trace against the given
// constant running draw (watts) and the default capacitor — a fast sizing
// tool; the full simulator refines it with the workload's real draw.
func AnalyzeTrace(tr *Trace, drawWatts float64) (OutageEstimate, error) {
	return power.Analyze(tr, drawWatts, capacitor.DefaultConfig())
}

// PowerCycleStats is one entry of Result.PowerCycleLog (Config.RecordCycles).
type PowerCycleStats = nvp.PowerCycleStats

// EventTracer streams per-power-cycle simulator events (outage checkpoints,
// prefetch issue/throttle/wipe/first-use, IPEX decisions) as JSON Lines.
// Install one via Config.Tracer; a nil tracer costs nothing. One tracer
// serves one run at a time — it carries the run's cycle clock.
type EventTracer = trace.Tracer

// TraceEvent is one record of an EventTracer stream.
type TraceEvent = trace.Event

// TraceEventKind names a TraceEvent type (the "ev" JSON field).
type TraceEventKind = trace.Kind

// NewEventTracer returns a tracer writing one JSON object per line to w.
// Call Flush when the run(s) finish to drain its buffer.
func NewEventTracer(w io.Writer) *EventTracer { return trace.NewJSONL(w) }

// MetricsRegistry accumulates named end-of-run counters and energy gauges.
// Install one via Config.Metrics; sharing a registry across runs aggregates
// a sweep. Dump it with its WriteJSON method.
type MetricsRegistry = trace.Registry

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return trace.NewRegistry() }

// WriteAccessTrace records a workload's complete access stream in the
// repository's text trace format (see internal/workload); ReadAccessTrace
// replays such a file, including traces captured outside this simulator.
func WriteAccessTrace(wl Workload, w io.Writer) error {
	return workload.WriteTrace(wl, w)
}

// ReadAccessTrace parses an access-trace file into a replayable Workload.
func ReadAccessTrace(r io.Reader) (Workload, error) {
	return workload.ReadTrace(r)
}

// AccessTraceFromSlice wraps a pre-built access sequence as a Workload.
func AccessTraceFromSlice(name string, accesses []Access) Workload {
	return workload.FromAccesses(name, accesses)
}

// Run simulates one workload under one power trace and configuration. The
// app's access stream is generated once per (app, scale) pair and memoized
// process-wide, so comparing configurations over the same workload replays
// an identical, cheap-to-read stream (see EvictWorkloadCache to release the
// memory).
func Run(app string, scale float64, trace *Trace, cfg Config) (Result, error) {
	wl, err := workload.Shared().Get(app, scale)
	if err != nil {
		return Result{}, err
	}
	return nvp.Run(wl, trace, cfg)
}

// EvictWorkloadCache drops every memoized workload access stream. A
// full-length 20-app sweep holds on the order of a hundred megabytes; call
// this between sweeps of distinct scales in long-lived processes.
func EvictWorkloadCache() { workload.Shared().Evict() }

// RunWorkload simulates a caller-provided workload generator (e.g. a custom
// application model) under one power trace and configuration.
func RunWorkload(wl Workload, trace *Trace, cfg Config) (Result, error) {
	return nvp.Run(wl, trace, cfg)
}

// RunContext is Run with cooperative cancellation. When ctx is cancelled the
// simulation stops cleanly at the next power-cycle boundary — after the JIT
// checkpoint, outage, and reboot complete — and returns the partial result
// with Completed=false and a nil error, the same contract as a run that
// exhausted its cycle budget. Check ctx.Err() to tell the two apart. A nil
// ctx behaves exactly like Run. Cancellation latency is one power cycle: the
// per-instruction hot loop never inspects the context.
func RunContext(ctx context.Context, app string, scale float64, trace *Trace, cfg Config) (Result, error) {
	wl, err := workload.Shared().Get(app, scale)
	if err != nil {
		return Result{}, err
	}
	return nvp.RunContext(ctx, wl, trace, cfg)
}

// RunWorkloadContext is RunWorkload with cooperative cancellation; see
// RunContext for the cancellation contract.
func RunWorkloadContext(ctx context.Context, wl Workload, trace *Trace, cfg Config) (Result, error) {
	return nvp.RunContext(ctx, wl, trace, cfg)
}

// Arena is reusable simulation state for repeated Runs. A Run allocates its
// caches, buffers, prefetchers, and controllers fresh every call; an Arena
// recycles them between calls whenever the next configuration permits, so a
// steady-state run on a stable configuration allocates nothing, and the
// workload is read straight from the process-wide memoized stream without a
// per-run generator. Results are bit-identical to the package-level Run
// functions.
//
// An Arena is NOT safe for concurrent use: create one per goroutine (the
// sweep harness keeps one per worker).
type Arena struct{ a *nvp.Arena }

// NewArena returns an empty arena; the first Run populates it.
func NewArena() *Arena { return &Arena{a: nvp.NewArena()} }

// Run is the package-level Run through the arena's reusable state.
func (ar *Arena) Run(app string, scale float64, trace *Trace, cfg Config) (Result, error) {
	return ar.RunContext(nil, app, scale, trace, cfg)
}

// RunContext is Run with cooperative cancellation; see the package-level
// RunContext for the contract.
func (ar *Arena) RunContext(ctx context.Context, app string, scale float64, trace *Trace, cfg Config) (Result, error) {
	st, err := workload.Shared().Stream(app, scale)
	if err != nil {
		return Result{}, err
	}
	return ar.a.RunStreamContext(ctx, st, trace, cfg)
}

// Speedup returns how much faster b completed than a (wall-clock cycles,
// including recharge time — the paper's performance metric).
func Speedup(a, b Result) float64 {
	if b.Cycles == 0 {
		return 0
	}
	return float64(a.Cycles) / float64(b.Cycles)
}

// Overhead reports IPEX's hardware cost (§6.1 of the paper: 99 bits per
// cache, 0.0018 % of the core area for the default two caches).
func Overhead(caches int) core.OverheadReport { return core.Overhead(caches) }

// FaultConfig describes a deterministic fault-injection schedule for
// Config.Faults: a non-ideal voltage sensor feeding IPEX, tearing
// checkpoint writes, and harvest-trace anomalies. The same seed and config
// always replay the identical schedule; a nil or all-disabled config is
// bit-identical to a fault-free run.
type FaultConfig = fault.Config

// SensorFaultConfig models the voltage sensor between the capacitor and
// the IPEX controller (ADC quantization, Gaussian noise, dropouts,
// stuck-at windows).
type SensorFaultConfig = fault.SensorConfig

// CheckpointFaultConfig models torn checkpoint block writes with bounded
// detect-and-retry and rollback.
type CheckpointFaultConfig = fault.CheckpointConfig

// HarvestFaultConfig models input-energy anomalies: sample dropouts,
// spikes, and multi-sample brownout storms.
type HarvestFaultConfig = fault.HarvestConfig

// FaultStats counts the faults a schedule actually injected
// (Result.Faults; nil on fault-free runs).
type FaultStats = fault.Stats

// InvariantReport is the runtime invariant checker's verdict
// (Result.Invariants when Config.Paranoid is set). Its Clean method is
// nil-safe.
type InvariantReport = fault.Report

// InvariantViolation is one failed runtime check inside an InvariantReport.
type InvariantViolation = fault.Violation

// ProfileReport is the cycle/energy attribution report (Result.Profile when
// Config.Profile is set): per-category cycle and energy totals, the
// capacitor drain ledger, the prefetch outcome split, and one CycleRecord
// per power cycle. Its cycle attribution sums exactly to Result.Cycles, and
// its drain ledger is bit-identical to the paranoid shadow ledger when
// Config.Paranoid is also set.
type ProfileReport = profile.Report

// ProfileCycleRecord is one power cycle's attribution inside a
// ProfileReport.
type ProfileCycleRecord = profile.CycleRecord

// PrefetchOutcomes splits issued prefetches by fate (useful / wiped by an
// outage / inaccurate).
type PrefetchOutcomes = profile.PrefetchOutcomes

// The profiler's attribution categories; index ProfileReport.Cycles and
// ProfileReport.EnergyNJ with them (names in profile.CycleCatNames /
// profile.EnergyCatNames).
type (
	ProfileCycleCat  = profile.CycleCat
	ProfileEnergyCat = profile.EnergyCat
)

// ExperimentOptions controls the paper-evaluation sweeps re-exported below.
type ExperimentOptions = experiments.Options

// Experiment entry points: each regenerates one figure or table of the
// paper (see DESIGN.md's experiment index). They are thin re-exports of
// internal/experiments for programmatic use; cmd/experiments drives them
// from the command line.
var (
	Fig01  = experiments.Fig01
	Fig02  = experiments.Fig02
	Fig04  = experiments.Fig04
	Fig10  = experiments.Fig10
	Fig11  = experiments.Fig11
	Fig12  = experiments.Fig12
	Fig13  = experiments.Fig13
	Fig14  = experiments.Fig14
	Fig15  = experiments.Fig15
	Table2 = experiments.Table2
	Table3 = experiments.Table3
	Table4 = experiments.Table4
	Fig16  = experiments.Fig16
	Fig17  = experiments.Fig17
	Fig18  = experiments.Fig18
	Fig19  = experiments.Fig19
	Fig20  = experiments.Fig20
	Fig21  = experiments.Fig21
	Fig22  = experiments.Fig22
	Fig23  = experiments.Fig23
	Fig24  = experiments.Fig24
	Fig25  = experiments.Fig25

	// The robustness sweeps (EXPERIMENTS.md "Robustness sweep"): IPEX's
	// gain under a degrading voltage sensor and under failing checkpoint
	// writes, every run checked by the paranoid invariant checker.
	RobustSensor = experiments.RobustSensor
	RobustCkpt   = experiments.RobustCkpt
)
