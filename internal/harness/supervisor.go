package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"ipex/internal/nvp"
)

// ErrInterrupted is wrapped by Pool.Run's error when the sweep stopped
// dispatching before every cell ran — a context cancellation (SIGINT/
// SIGTERM graceful drain) or an exhausted StopAfter budget. The journal
// written so far is resumable.
var ErrInterrupted = errors.New("sweep interrupted before all cells ran")

// ErrCellTimeout is wrapped by a cell error when the wall-clock backstop
// watchdog cancelled the run. It is transient: a timeout says more about
// the machine than the cell, so the cell is retried up to MaxRetries. The
// deterministic per-cell deadline is the cycle budget (Cell configuration
// clamps nvp.Config.MaxCycles), which truncates inside simulated time;
// this backstop exists only for a harness-level hang and never appears in
// results.
var ErrCellTimeout = errors.New("cell exceeded the wall-clock backstop")

// transientErr marks an error worth retrying.
type transientErr struct{ err error }

func (t *transientErr) Error() string { return t.err.Error() }
func (t *transientErr) Unwrap() error { return t.err }

// Transient marks err as retryable: the supervisor re-runs the cell with
// deterministic exponential backoff up to MaxRetries before giving up.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientErr{err: err}
}

// IsTransient reports whether err (or anything it wraps) was marked
// Transient.
func IsTransient(err error) bool {
	var t *transientErr
	return errors.As(err, &t)
}

// PanicError carries a recovered cell panic and its goroutine stack. The
// supervisor never returns it to the sweep: the panic is journaled and the
// cell soft-fails (Completed=false), so one poisoned cell costs one skipped
// app, not hours of completed sweep.
type PanicError struct {
	Value string
	Stack string
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("cell panicked: %s", p.Value)
}

// Counters tracks supervision outcomes for live telemetry; all fields are
// atomics, safe to read while a sweep runs.
type Counters struct {
	// Executed counts cells that ran in this process; Replayed counts
	// cells answered from the journal without simulating. Shared counts
	// the subset of Executed that a Pool worker answered with the result
	// of an identical cell (same key) already simulated in this sweep.
	Executed atomic.Uint64
	Replayed atomic.Uint64
	Shared   atomic.Uint64
	// Retried counts re-runs after a transient failure or truncation;
	// Timeouts counts wall-clock backstop expiries (a subset of the
	// retries until MaxRetries is exhausted).
	Retried  atomic.Uint64
	Timeouts atomic.Uint64
	// Panics counts isolated cell panics (journaled, soft-failed);
	// Failures counts cells journaled as KindFail (panics + errors that
	// survived retrying).
	Panics   atomic.Uint64
	Failures atomic.Uint64
	// Remote counts cells answered by a RemoteRunner (executed on an ipexd
	// fleet, verified, and journaled without simulating locally).
	Remote atomic.Uint64
	// Enqueued counts cells handed to Pool.Run, Done the ones its workers
	// finished (however answered), and Insts the instructions in those
	// cells' results (replayed and shared cells included). A sweep's size
	// is not known up front, so Done/Enqueued is "of the work discovered
	// so far".
	Enqueued atomic.Uint64
	Done     atomic.Uint64
	Insts    atomic.Uint64
}

// CounterSnapshot is a point-in-time copy of Counters.
type CounterSnapshot struct {
	Executed, Replayed, Retried, Timeouts, Panics, Failures uint64
	Shared                                                  uint64
	// Skipped is always 0: no cell is ever filtered out of a sweep. The
	// field stays so existing readers of the snapshot keep compiling.
	Skipped               uint64
	Remote                uint64
	Enqueued, Done, Insts uint64
}

// Snapshot reads every counter atomically (each individually; the set is
// not a consistent cut, which telemetry does not need). Nil-safe.
func (c *Counters) Snapshot() CounterSnapshot {
	if c == nil {
		return CounterSnapshot{}
	}
	return CounterSnapshot{
		Executed: c.Executed.Load(),
		Replayed: c.Replayed.Load(),
		Shared:   c.Shared.Load(),
		Retried:  c.Retried.Load(),
		Timeouts: c.Timeouts.Load(),
		Panics:   c.Panics.Load(),
		Failures: c.Failures.Load(),
		Remote:   c.Remote.Load(),
		Enqueued: c.Enqueued.Load(),
		Done:     c.Done.Load(),
		Insts:    c.Insts.Load(),
	}
}

// RemoteRunner executes a cell somewhere other than this process — the
// resilient fleet client in internal/remote implements it. RunRemote
// returns handled=false to decline the cell (not remotable, fleet down,
// retry budget exhausted with local fallback enabled); the supervisor then
// runs the cell locally as if no runner were installed. handled=true with a
// non-nil error is a hard cell failure (journaled as KindFail). The
// returned result must already be verified — the supervisor journals it
// exactly as it would a local simulation.
type RemoteRunner interface {
	RunRemote(key, label string, req []byte) (res nvp.Result, handled bool, err error)
}

// Cell is one supervised unit of sweep work: a content-hash identity and
// the closure that simulates it. Run receives a context that is non-nil
// only when the wall-clock backstop is armed; implementations should thread
// it into nvp.RunContext so the backstop can stop a wedged run at the next
// power-cycle boundary. The arena is the worker's reusable simulation
// state (never nil); implementations should run through it so steady-state
// cells allocate nothing.
type Cell struct {
	// Key is the content-hash identity (see Key): it files the cell's
	// journal entry and finds its replay.
	Key string
	// Label names the cell in journal entries and diagnostics (the app).
	Label string
	// Run executes the cell. A nil-Completed result feeds the sweep's
	// soft-fail (skipped app) path downstream.
	Run func(ctx context.Context, a *nvp.Arena) (nvp.Result, error)
	// RemoteReq, when non-empty, is the cell's declarative /v1/run body
	// (remote.EncodeCell): proof that a fleet server would reconstruct this
	// exact cell identity. Empty means the cell always runs locally,
	// RemoteRunner or not.
	RemoteReq []byte
}

// Supervisor wraps every cell of a sweep in the crash-safety envelope:
// journal replay, bounded retries with deterministic exponential backoff,
// an optional wall-clock watchdog, and panic isolation. One Supervisor is
// shared by all of a sweep's experiment calls, so its StopAfter budget,
// counters and memo of executed cells span the whole command invocation:
// Pool workers simulate each distinct cell key once and journal the
// result again for every duplicate. The zero value supervises with
// everything off (no journal, no retries, no backstop).
type Supervisor struct {
	// Journal receives one entry per finished cell; nil disables
	// journaling. A *Journal writes a durable file.
	Journal Sink
	// Replay holds journaled entries from a resumed run, keyed by cell
	// hash. Cells whose key maps to a KindCell entry return the journaled
	// result without simulating; KindFail entries re-run.
	Replay map[string]*Entry
	// MaxRetries bounds re-runs after a transient failure (wall-clock
	// timeout, paranoid-flagged run) or a truncated (Completed=false) run.
	// 0 disables retrying.
	MaxRetries int
	// BackoffBase scales the deterministic exponential backoff between
	// retries: attempt n sleeps BackoffBase << n (capped at 32×). The
	// delay depends only on the attempt number — no jitter — so retry
	// schedules are reproducible. 0 retries immediately.
	BackoffBase time.Duration
	// WallBackstop, when > 0, arms a wall-clock watchdog per cell run: the
	// cell's context is cancelled after this duration and the run reports
	// ErrCellTimeout (transient). Wall time never enters results — the
	// deterministic deadline is the cycle budget — so the backstop only
	// trades a hung harness for a retried cell.
	WallBackstop time.Duration
	// StopAfter, when > 0, interrupts the sweep after that many cells have
	// been admitted for execution — the same graceful-drain path a SIGINT
	// takes, but deterministic. It exists for the resume round-trip tests
	// and `make resume-smoke`.
	StopAfter uint64
	// Remote, when non-nil, is offered every journaled cell that carries a
	// RemoteReq before local execution. A handled cell is journaled from the
	// remote result; a declined one falls through to the local retry loop
	// unchanged (graceful degradation).
	Remote RemoteRunner
	// PropagatePanics returns an isolated cell panic to the caller as its
	// *PanicError instead of soft-failing the cell into a zero result. A
	// sweep wants the soft-fail (one poisoned cell costs one skipped app,
	// not the whole run); a server wants the error (a 500 response), since
	// a zero result must never be mistaken for — or cached as — a
	// simulation. The panic is still recovered, counted, and journaled
	// either way.
	PropagatePanics bool

	// Counters tracks supervision outcomes for telemetry.
	Counters Counters

	// Obs, when non-nil, records cell-lifecycle spans (attempt duration,
	// backoff, journal-append latency; the Pool adds queue wait) into the
	// metrics registry it was built over. Spans never touch the journal or
	// results — see NewObs.
	Obs *Obs

	admitted atomic.Uint64

	// flights is the per-sweep memo behind runShared: one entry per
	// distinct cell key a Pool worker executed locally.
	mu      sync.Mutex
	flights map[string]*flight
}

// admit consumes one slot of the StopAfter budget; it reports false once
// the budget is exhausted (the pool then drains as if cancelled).
func (s *Supervisor) admit() bool {
	if s == nil || s.StopAfter == 0 {
		return true
	}
	return s.admitted.Add(1) <= s.StopAfter
}

// replay looks up a journaled result for the cell.
func (s *Supervisor) replay(c Cell) (nvp.Result, bool) {
	if s == nil {
		return nvp.Result{}, false
	}
	e := s.Replay[c.Key]
	if e == nil || e.Kind != KindCell || e.Result == nil {
		return nvp.Result{}, false
	}
	s.Counters.Replayed.Add(1)
	return *e.Result, true
}

// RunCell executes one cell under the full supervision envelope and
// reports whether the result came from the journal instead of a
// simulation. The error is non-nil only for a non-recoverable failure the
// sweep should abort on; isolated panics return a zero, not-Completed
// result and a nil error so the sweep's existing skipped-app path absorbs
// them. A direct RunCell call never shares a result with another cell of
// the same key; only Pool workers do (see runShared).
//
// The arena is handed to the cell body for state reuse; nil gets a private
// one. Reusing an arena across retries — and even across a recovered panic
// — is safe because every recycled component is reset from scratch at the
// next run's construction.
func (s *Supervisor) RunCell(c Cell, a *nvp.Arena) (nvp.Result, error, bool) {
	if res, ok := s.replay(c); ok {
		return res, nil, true
	}
	if res, err, ok := s.runRemote(c); ok {
		return res, err, false
	}
	res, err, _ := s.execute(c, a)
	return res, err, false
}

// flight is one distinct cell key's local execution within a sweep. The
// leader sets entry before closing done: its KindCell journal entry, or
// nil when the cell failed, panicked or timed out.
type flight struct {
	done  chan struct{}
	entry *Entry
}

// runShared is RunCell for Pool workers: replay, then remote, then local
// execution shared by key. The first worker to reach a key leads and
// simulates; every later cell with that key waits for the leader and, when
// the leader journaled a KindCell entry, journals a copy of that entry as
// its own and counts as Executed and Shared without simulating. After a
// failed leader each follower executes for itself. The memo lives as long
// as the Supervisor — one sweep.
func (s *Supervisor) runShared(c Cell, a *nvp.Arena) (nvp.Result, error) {
	if res, ok := s.replay(c); ok {
		return res, nil
	}
	if res, err, ok := s.runRemote(c); ok {
		return res, err
	}
	s.mu.Lock()
	f, follow := s.flights[c.Key]
	if !follow {
		if s.flights == nil {
			s.flights = make(map[string]*flight)
		}
		f = &flight{done: make(chan struct{})}
		s.flights[c.Key] = f
	}
	s.mu.Unlock()
	if !follow {
		defer close(f.done)
		res, err, e := s.execute(c, a)
		f.entry = e
		return res, err
	}
	<-f.done
	if f.entry == nil {
		res, err, _ := s.execute(c, a)
		return res, err
	}
	s.Counters.Executed.Add(1)
	s.Counters.Shared.Add(1)
	e, res := *f.entry, *f.entry.Result
	e.Result = &res
	s.journal(e)
	return res, nil
}

// runRemote offers the cell to the RemoteRunner; ok reports that the
// runner handled it (the result, or a hard failure, is journaled here).
func (s *Supervisor) runRemote(c Cell) (res nvp.Result, err error, ok bool) {
	if s == nil || s.Remote == nil || len(c.RemoteReq) == 0 {
		return nvp.Result{}, nil, false
	}
	res, handled, err := s.Remote.RunRemote(c.Key, c.Label, c.RemoteReq)
	if !handled {
		// Declined: the caller degrades to local execution.
		return nvp.Result{}, nil, false
	}
	if err != nil {
		s.count(func(cs *Counters) { cs.Failures.Add(1) })
		s.journal(Entry{Kind: KindFail, Key: c.Key, App: c.Label,
			Attempts: 1, Error: err.Error()})
		return nvp.Result{App: c.Label}, err, true
	}
	s.count(func(cs *Counters) { cs.Remote.Add(1) })
	s.journal(Entry{Kind: KindCell, Key: c.Key, App: c.Label,
		Attempts: 1, Result: &res})
	return res, nil, true
}

// execute simulates the cell locally under the retry loop and journals the
// outcome. The returned entry is the KindCell entry it journaled, or nil
// when the cell failed.
func (s *Supervisor) execute(c Cell, a *nvp.Arena) (nvp.Result, error, *Entry) {
	if a == nil {
		a = nvp.NewArena()
	}
	var res nvp.Result
	var err error
	attempts := 0
	for {
		attempts++
		res, err = s.runOnce(c, a)
		var pe *PanicError
		if errors.As(err, &pe) {
			s.count(func(cs *Counters) { cs.Panics.Add(1); cs.Failures.Add(1) })
			s.journal(Entry{Kind: KindFail, Key: c.Key, App: c.Label,
				Attempts: attempts, Error: pe.Error(), Stack: pe.Stack})
			if s != nil && s.PropagatePanics {
				return nvp.Result{App: c.Label}, pe, nil
			}
			// Isolate: fail only this cell. A zero result with
			// Completed=false feeds the sweep's soft-fail path, so the
			// surviving cells still render (with a skipped note).
			return nvp.Result{App: c.Label}, nil, nil
		}
		retryable := (err != nil && IsTransient(err)) || (err == nil && !res.Completed)
		if retryable && attempts <= s.maxRetries() {
			s.count(func(cs *Counters) { cs.Retried.Add(1) })
			s.backoff(attempts)
			continue
		}
		break
	}
	s.count(func(cs *Counters) { cs.Executed.Add(1) })
	if err != nil {
		s.count(func(cs *Counters) { cs.Failures.Add(1) })
		s.journal(Entry{Kind: KindFail, Key: c.Key, App: c.Label,
			Attempts: attempts, Error: err.Error()})
		return res, err, nil
	}
	e := &Entry{Kind: KindCell, Key: c.Key, App: c.Label,
		Attempts: attempts, Result: &res}
	s.journal(*e)
	return res, nil, e
}

func (s *Supervisor) maxRetries() int {
	if s == nil {
		return 0
	}
	return s.MaxRetries
}

// obs returns the span recorder (nil when off or on a nil supervisor).
func (s *Supervisor) obs() *Obs {
	if s == nil {
		return nil
	}
	return s.Obs
}

func (s *Supervisor) count(f func(*Counters)) {
	if s != nil {
		f(&s.Counters)
	}
}

// journal appends an entry, best-effort: a journal write failure must not
// take down the sweep the journal exists to protect, so it is recorded on
// the entryless side (the cell result is still returned; resume will
// simply re-run it).
func (s *Supervisor) journal(e Entry) {
	if s == nil || s.Journal == nil {
		return
	}
	start := s.Obs.now()
	// The append error is intentionally not fatal; see above.
	_ = s.Journal.Append(e)
	if o := s.Obs; o != nil {
		o.span(o.JournalAppend, start)
	}
}

// runOnce performs a single recover()-isolated attempt, arming the
// wall-clock watchdog when configured.
func (s *Supervisor) runOnce(c Cell, a *nvp.Arena) (res nvp.Result, err error) {
	var ctx context.Context
	cancel := func() {}
	if s != nil && s.WallBackstop > 0 {
		ctx, cancel = backstopContext(s.WallBackstop)
	}
	defer cancel()
	start := s.obs().now()
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: fmt.Sprint(r), Stack: string(debug.Stack())}
		}
		// Inside the recover defer so a panicking attempt is still timed.
		if o := s.obs(); o != nil {
			o.span(o.Attempt, start)
		}
	}()
	res, err = c.Run(ctx, a)
	if err == nil && ctx != nil && ctx.Err() != nil {
		// The watchdog fired and the run stopped at a power-cycle
		// boundary: classify as a transient timeout rather than a
		// truncated result.
		s.count(func(cs *Counters) { cs.Timeouts.Add(1) })
		err = Transient(fmt.Errorf("%s (%s): %w", c.Label, c.Key, ErrCellTimeout))
	}
	return res, err
}
