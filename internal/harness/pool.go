package harness

import (
	"context"
	"fmt"
	"sync"
	"time"

	"ipex/internal/nvp"
)

// Pool executes a batch of supervised cells on a bounded worker pool,
// preserving result order. A fixed pool (rather than one goroutine per
// cell gated by a semaphore) keeps the footprint at Workers goroutines
// regardless of sweep size — a headline run enqueues thousands of cells.
//
// Cancellation is a graceful drain: once Ctx is cancelled (or the
// supervisor's StopAfter budget runs out) no further cells are dispatched,
// but in-flight cells run to completion and are journaled — their context
// is deliberately NOT the drain context, so an interrupt never wastes the
// simulation seconds already invested. Run then reports ErrInterrupted
// with a done/failed/remaining summary.
type Pool struct {
	// Workers bounds concurrency (min 1, capped at len(cells)).
	Workers int
	// Ctx, when non-nil, stops dispatch once cancelled.
	Ctx context.Context
	// Sup supervises each cell and counts its progress (Counters.Enqueued,
	// Done, Insts); nil means bare execution (still panic-isolated via the
	// zero Supervisor). Cells whose key Sup has already resolved — by
	// replay, remote or local execution, in this batch or an earlier one —
	// share that answer instead of resolving again.
	Sup *Supervisor
}

// Run executes every cell and returns the per-cell results and errors in
// input order. The third return is nil for a complete batch, or an
// ErrInterrupted-wrapped error naming how many cells were done, failed,
// and remaining when the drain stopped dispatch early; the results of the
// cells that did run are still filled in.
func (p *Pool) Run(cells []Cell) ([]nvp.Result, []error, error) {
	sup := p.Sup
	if sup == nil {
		sup = &Supervisor{}
	}
	results := make([]nvp.Result, len(cells))
	errs := make([]error, len(cells))
	ran := make([]bool, len(cells))
	sup.Counters.Enqueued.Add(uint64(len(cells)))

	workers := p.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(cells) {
		workers = len(cells)
	}
	// Queue-wait spans: the dispatcher stamps enqueued[i] before sending i,
	// the worker reads it after receiving — the channel send/receive pair
	// provides the happens-before. Only allocated when spans are on.
	obs := sup.obs()
	var enqueued []time.Duration
	if obs != nil {
		enqueued = make([]time.Duration, len(cells))
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One arena per worker: consecutive cells on the same worker
			// recycle their simulation state, so a steady-state sweep cell
			// allocates nothing. Arenas are not concurrency-safe and never
			// cross goroutines.
			arena := nvp.NewArena()
			for i := range idx {
				if obs != nil {
					obs.span(obs.QueueWait, enqueued[i])
				}
				res, err := sup.runShared(cells[i], arena)
				results[i], errs[i], ran[i] = res, err, true
				sup.Counters.Done.Add(1)
				sup.Counters.Insts.Add(res.Insts)
			}
		}()
	}

	interrupted := false
dispatch:
	for i := range cells {
		if !sup.admit() {
			interrupted = true
			break
		}
		if obs != nil {
			enqueued[i] = obs.now()
		}
		if p.Ctx != nil {
			// Cancellation gets priority: a select with both a ready worker
			// and a done context picks randomly, which would dispatch one
			// extra cell per worker after an interrupt.
			select {
			case <-p.Ctx.Done():
				interrupted = true
				break dispatch
			default:
			}
			select {
			case idx <- i:
			case <-p.Ctx.Done():
				interrupted = true
				break dispatch
			}
		} else {
			idx <- i
		}
	}
	close(idx)
	wg.Wait()

	if !interrupted {
		return results, errs, nil
	}
	done, failed := 0, 0
	for i := range cells {
		if !ran[i] {
			continue
		}
		if errs[i] != nil {
			failed++
		} else {
			done++
		}
	}
	return results, errs, fmt.Errorf("%w: %d cell(s) done, %d failed, %d remaining in this batch",
		ErrInterrupted, done, failed, len(cells)-done-failed)
}
