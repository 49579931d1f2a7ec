// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the NVP simulator. Each FigNN/TableN function sweeps
// the same workloads, power traces, and parameters as the paper and returns
// a typed result that renders the same rows or series the paper reports.
//
// The experiment index lives in DESIGN.md; measured-vs-paper values in
// EXPERIMENTS.md. cmd/experiments drives everything from the command line.
package experiments

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"

	"ipex/internal/harness"
	"ipex/internal/nvp"
	"ipex/internal/power"
	"ipex/internal/trace"
	"ipex/internal/workload"
)

// Options controls the sweep size shared by every experiment.
type Options struct {
	// Scale multiplies each workload's instruction count; 1.0 reproduces
	// the full-length runs, tests use small values. <= 0 means 1.0.
	Scale float64
	// Apps restricts the workload list; nil means all 20.
	Apps []string
	// TraceSeed seeds the synthetic power traces (default 1). Every
	// configuration within one experiment replays the identical trace, so
	// the seed only selects which input-energy recording is used.
	TraceSeed uint64
	// Parallelism bounds concurrent simulations (default NumCPU).
	Parallelism int
	// Workloads supplies memoized access streams; nil means the shared
	// process-wide store. Every configuration of a sweep replays the same
	// generated-once stream instead of regenerating it per job.
	Workloads *workload.Store
	// Tracer, when non-nil, streams every run's event log. One tracer
	// carries one run's cycle clock, so tracing forces Parallelism to 1:
	// runs are serialized rather than interleaving their clocks. For a
	// traced sweep that keeps its parallelism, use Cells instead.
	Tracer *trace.Tracer
	// Cells, when non-nil, gives every sweep cell its own JSONL trace file
	// with a deterministic name (see CellTracing). Per-cell tracers have
	// independent clocks, so this composes with Parallelism; it overrides
	// Tracer for the simulations themselves.
	Cells *CellTracing
	// Metrics, when non-nil, accumulates named counters across every run
	// of the sweep (the dump then decomposes the whole sweep).
	Metrics *trace.Registry
	// Paranoid runs every simulation with the runtime invariant checker
	// (nvp.Config.Paranoid) and fails a run whose report is not clean —
	// structured diagnostics instead of a silently corrupted sweep. The
	// failure is marked transient, so a supervisor with retries re-runs the
	// flagged cell before giving up.
	Paranoid bool
	// GenericLoop forces every cell through the generic interpreter loop
	// (nvp.Config.DisableFastPaths): an A/B switch for validating the
	// specialized fast paths, which are bit-identical by contract. It does
	// not enter the cell's journal identity, so resumed sweeps replay
	// regardless of which loop produced the journal.
	GenericLoop bool
	// Ctx, when non-nil, is the graceful-drain context: once cancelled
	// (SIGINT/SIGTERM in cmd/experiments) no further cells are dispatched,
	// in-flight cells finish and are journaled, and the sweep reports
	// harness.ErrInterrupted. The context is deliberately NOT passed to the
	// simulations themselves — an interrupt never discards work in flight.
	Ctx context.Context
	// Sup, when non-nil, supervises every cell: durable journaling, replay
	// on resume, bounded retries with deterministic backoff, a wall-clock
	// backstop, and panic isolation. One Supervisor is shared across every
	// experiment of a command invocation; its Counters track the sweep's
	// progress for live telemetry. Nil runs cells bare (but still
	// panic-isolated by the zero supervisor).
	Sup *harness.Supervisor
	// CellBudget, when > 0, clamps every cell's nvp.Config.MaxCycles to at
	// most this many simulated cycles — the deterministic per-cell
	// deadline. A cell that exceeds it truncates (Completed=false) inside
	// simulated time, identically on every machine; the supervisor's
	// wall-clock watchdog is only the backstop behind it.
	CellBudget uint64
	// RemoteEncode, when non-nil, derives each cell's declarative /v1/run
	// body (or nil to keep the cell local); the result rides on
	// harness.Cell.RemoteReq for Sup.Remote to execute on an ipexd fleet.
	// Injected as a function (remote.EncodeCell) rather than imported so
	// experiments does not depend on the remote package.
	RemoteEncode RemoteEncoder
}

// RemoteEncoder derives the declarative remote-execution request for one
// sweep cell, or nil when the cell must run locally. The signature matches
// remote.EncodeCell.
type RemoteEncoder func(app string, scale float64, tr *power.Trace, traceSeed uint64, cfg nvp.Config, key string) []byte

func (o Options) norm() Options {
	if o.Scale <= 0 {
		o.Scale = 1
	}
	if len(o.Apps) == 0 {
		o.Apps = workload.Names()
	}
	if o.TraceSeed == 0 {
		o.TraceSeed = 1
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.NumCPU()
	}
	if o.Tracer != nil {
		o.Parallelism = 1
	}
	if o.Workloads == nil {
		o.Workloads = workload.Shared()
	}
	return o
}

// traceMemo caches generated power traces by (source, seed). Generation is
// deterministic and traces are read-only once built, so every experiment of
// a sweep, and every ipexd request, shares one instance instead of
// re-synthesizing ~50k samples each.
var traceMemo sync.Map

type traceKey struct {
	src  power.Source
	seed uint64
}

// Trace builds (or replays) the shared default-length power trace for
// (src, seed).
func Trace(src power.Source, seed uint64) *power.Trace {
	key := traceKey{src: src, seed: seed}
	if v, ok := traceMemo.Load(key); ok {
		return v.(*power.Trace)
	}
	v, _ := traceMemo.LoadOrStore(key, power.Generate(src, power.DefaultTraceSamples, seed))
	return v.(*power.Trace)
}

// job is one simulation request.
type job struct {
	app string
	cfg nvp.Config
	tr  *power.Trace
}

// effective derives the result-affecting config of one job: the sweep-level
// paranoid flag and the deterministic per-cell cycle deadline applied, but
// no observer attachments (those are added per run and excluded from the
// cell's journal identity).
func (o Options) effective(cfg nvp.Config) nvp.Config {
	if o.Paranoid {
		cfg.Paranoid = true
	}
	if o.GenericLoop {
		cfg.DisableFastPaths = true
	}
	if o.CellBudget > 0 && (cfg.MaxCycles == 0 || cfg.MaxCycles > o.CellBudget) {
		cfg.MaxCycles = o.CellBudget
	}
	return cfg
}

// runAll executes jobs on the crash-safe harness pool, preserving order.
// Every job becomes a supervised cell: journaled when Options.Sup carries a
// journal, replayed instead of re-simulated on resume, retried on transient
// failures, and panic-isolated (a panicking cell soft-fails into the
// skipped-app path instead of taking the sweep down). Cancellation of
// Options.Ctx drains gracefully — in-flight cells complete — and surfaces
// as a harness.ErrInterrupted-wrapped error.
func runAll(o Options, jobs []job) ([]nvp.Result, error) {
	store := o.Workloads
	if store == nil {
		store = workload.Shared()
	}
	// Per-cell trace paths are reserved here, in enqueue order, so the file
	// names are deterministic however the workers get scheduled. Creation
	// is deferred to the cell body: a replayed cell simulates nothing and
	// therefore writes no trace file.
	var cellPaths []string
	if o.Cells != nil {
		cellPaths = make([]string, len(jobs))
		for i, j := range jobs {
			cellPaths[i] = o.Cells.reserve(j.app)
		}
	}
	cells := make([]harness.Cell, len(jobs))
	for i := range jobs {
		j := jobs[i]
		cfg := o.effective(j.cfg)
		var path string
		if cellPaths != nil {
			path = cellPaths[i]
		}
		cells[i] = harness.Cell{
			Key:   cellKey(o, j, cfg),
			Label: j.app,
			Run:   o.cellRun(store, j, cfg, path),
		}
		if o.RemoteEncode != nil {
			cells[i].RemoteReq = o.RemoteEncode(j.app, o.Scale, j.tr, o.TraceSeed, cfg, cells[i].Key)
		}
	}
	pool := &harness.Pool{Workers: o.Parallelism, Ctx: o.Ctx, Sup: o.Sup}
	results, errs, interrupted := pool.Run(cells)
	if interrupted != nil {
		return nil, interrupted
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// testCellHook, when non-nil, runs inside every cell body just before the
// simulation (after the cell's trace file, if any, is created). It exists so
// in-package tests can inject a per-cell panic and cover the isolation path
// end to end; production code never sets it.
var testCellHook func(app string)

// cellRun builds the supervised body of one sweep cell: Simulate, plus the
// cell's trace file when per-cell tracing is on.
func (o Options) cellRun(store *workload.Store, j job, cfg nvp.Config, cellPath string) func(context.Context, *nvp.Arena) (nvp.Result, error) {
	return func(ctx context.Context, a *nvp.Arena) (res nvp.Result, err error) {
		cfg.Tracer = o.Tracer
		cfg.Metrics = o.Metrics
		if cellPath != "" {
			f, ferr := os.Create(cellPath)
			if ferr != nil {
				return nvp.Result{}, ferr
			}
			tr := trace.NewJSONL(f)
			cfg.Tracer = tr
			// The trace file must never outlive a failed cell half-written:
			// on success it is flushed, closed, and counted; on error it is
			// closed and removed; on panic it is removed and the panic is
			// re-raised for the supervisor to isolate and journal.
			defer func() {
				if p := recover(); p != nil {
					f.Close()
					os.Remove(cellPath)
					panic(p)
				}
				if err == nil {
					err = tr.Flush()
				}
				if cerr := f.Close(); cerr != nil && err == nil {
					err = fmt.Errorf("experiments: closing %s: %w", cellPath, cerr)
				}
				if err != nil {
					os.Remove(cellPath)
					return
				}
				o.Cells.wrote()
			}()
		}
		if testCellHook != nil {
			testCellHook(j.app)
		}
		return Simulate(ctx, a, store, j.app, o.Scale, j.tr, cfg)
	}
}

// Simulate is the body of every cell, in a sweep and in ipexd alike: it
// runs app at scale off store's shared immutable trace arena on the power
// trace tr, through the worker's arena a, so a steady-state cell neither
// copies the workload nor allocates simulation state. ctx is the
// supervisor's wall-clock backstop (nil when unarmed), never a drain
// context, so a wedged run stops at its next power-cycle boundary. A
// paranoid run whose invariant report is dirty fails transiently: flagged
// runs are worth one more try (bounded by the supervisor's MaxRetries)
// before the caller gives up.
func Simulate(ctx context.Context, a *nvp.Arena, store *workload.Store, app string, scale float64, tr *power.Trace, cfg nvp.Config) (nvp.Result, error) {
	st, err := store.Stream(app, scale)
	if err != nil {
		return nvp.Result{}, err
	}
	res, err := a.RunStreamContext(ctx, st, tr, cfg)
	if err == nil && cfg.Paranoid && !res.Invariants.Clean() {
		err = harness.Transient(fmt.Errorf("experiments: %s: %s", app, res.Invariants.Summary()))
	}
	return res, err
}

// runPerApp runs one configuration for every app and returns results in app
// order.
func runPerApp(o Options, cfg nvp.Config, tr *power.Trace) ([]nvp.Result, error) {
	jobs := make([]job, len(o.Apps))
	for i, app := range o.Apps {
		jobs[i] = job{app: app, cfg: cfg, tr: tr}
	}
	return runAll(o, jobs)
}

// speedups returns base[i].Cycles / variant[i].Cycles per app.
func speedups(base, variant []nvp.Result) []float64 {
	out := make([]float64, len(base))
	for i := range base {
		out[i] = float64(base[i].Cycles) / float64(variant[i].Cycles)
	}
	return out
}

// filterComplete drops every app whose run hit the cycle budget in ANY of
// the aligned result sets: timing comparisons of truncated runs are
// meaningless, but one starved workload must not abort a whole sweep. It
// returns the surviving apps, the correspondingly filtered sets, and the
// names that were dropped (for the experiment's failure summary). Only a
// sweep with NO surviving app is an error.
func filterComplete(apps []string, sets ...[]nvp.Result) (kept []string, filtered [][]nvp.Result, skipped []string, err error) {
	bad := make([]bool, len(apps))
	for _, rs := range sets {
		for i := range rs {
			if !rs[i].Completed {
				bad[i] = true
			}
		}
	}
	kept = make([]string, 0, len(apps))
	filtered = make([][]nvp.Result, len(sets))
	for i, app := range apps {
		if bad[i] {
			skipped = append(skipped, app)
			continue
		}
		kept = append(kept, app)
		for s := range sets {
			filtered[s] = append(filtered[s], sets[s][i])
		}
	}
	if len(kept) == 0 {
		return nil, nil, skipped, fmt.Errorf("experiments: no workload completed within the cycle budget (weak trace or tiny MaxCycles); skipped: %s",
			strings.Join(skipped, ", "))
	}
	return kept, filtered, skipped, nil
}

// skippedNote renders the per-experiment failure summary appended to its
// String() output; empty when every app completed.
func skippedNote(skipped []string) string {
	if len(skipped) == 0 {
		return ""
	}
	return fmt.Sprintf("\n(skipped %d app(s), cycle budget exhausted: %s)",
		len(skipped), strings.Join(skipped, ", "))
}

// mergeSkipped accumulates unique skipped-app names across sweep points,
// preserving first-seen order.
func mergeSkipped(acc, more []string) []string {
	for _, app := range more {
		seen := false
		for _, a := range acc {
			if a == app {
				seen = true
				break
			}
		}
		if !seen {
			acc = append(acc, app)
		}
	}
	return acc
}
