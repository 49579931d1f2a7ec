package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"ipex/internal/nvp"
)

// cellInsts is the instruction count every makeCells cell reports.
const cellInsts = 1000

func makeCells(n int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		app := fmt.Sprintf("app%02d", i)
		cells[i] = Cell{Key: Key(app), Label: app, Run: func(context.Context, *nvp.Arena) (nvp.Result, error) {
			return nvp.Result{App: app, Completed: true, Insts: cellInsts}, nil
		}}
	}
	return cells
}

func TestPoolPreservesOrder(t *testing.T) {
	cells := makeCells(20)
	p := &Pool{Workers: 4}
	results, errs, interrupted := p.Run(cells)
	if interrupted != nil {
		t.Fatal(interrupted)
	}
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("cell %d: %v", i, errs[i])
		}
		if want := fmt.Sprintf("app%02d", i); res.App != want {
			t.Fatalf("results[%d].App = %q, want %q", i, res.App, want)
		}
	}
}

func TestPoolStopAfterDrains(t *testing.T) {
	const stop = 3
	cells := makeCells(10)
	sup := &Supervisor{StopAfter: stop}
	p := &Pool{Workers: 2, Sup: sup}
	results, _, interrupted := p.Run(cells)
	if !errors.Is(interrupted, ErrInterrupted) {
		t.Fatalf("interrupted = %v, want ErrInterrupted", interrupted)
	}
	ran := 0
	for _, res := range results {
		if res.App != "" {
			ran++
		}
	}
	if ran != stop {
		t.Fatalf("%d cells ran, want exactly %d (StopAfter budget)", ran, stop)
	}
	if !strings.Contains(interrupted.Error(), "3 cell(s) done") ||
		!strings.Contains(interrupted.Error(), "7 remaining") {
		t.Fatalf("summary = %q", interrupted)
	}
}

func TestPoolContextCancelStopsDispatch(t *testing.T) {
	// A context cancelled before dispatch (or mid-sweep) stops every
	// not-yet-dispatched cell deterministically: cancellation has priority
	// over a ready worker in the dispatch select.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Uint64
	cells := makeCells(4)
	for i := range cells {
		cells[i].Run = func(context.Context, *nvp.Arena) (nvp.Result, error) {
			ran.Add(1)
			return nvp.Result{Completed: true}, nil
		}
	}
	p := &Pool{Workers: 2, Ctx: ctx}
	_, _, interrupted := p.Run(cells)
	if !errors.Is(interrupted, ErrInterrupted) {
		t.Fatalf("interrupted = %v", interrupted)
	}
	if ran.Load() != 0 {
		t.Fatalf("%d cells dispatched after cancellation", ran.Load())
	}
	if !strings.Contains(interrupted.Error(), "4 remaining") {
		t.Fatalf("summary = %q", interrupted)
	}
}

func TestPoolCancelMidSweepKeepsInFlightResults(t *testing.T) {
	// A cell that triggers the cancellation itself still completes and has
	// its result recorded — the drain context never reaches running cells.
	ctx, cancel := context.WithCancel(context.Background())
	cells := []Cell{
		{Key: "a", Label: "a", Run: func(context.Context, *nvp.Arena) (nvp.Result, error) {
			cancel()
			return nvp.Result{App: "a", Completed: true}, nil
		}},
		{Key: "b", Label: "b", Run: func(context.Context, *nvp.Arena) (nvp.Result, error) {
			return nvp.Result{App: "b", Completed: true}, nil
		}},
	}
	p := &Pool{Workers: 1, Ctx: ctx}
	results, errs, interrupted := p.Run(cells)
	if results[0].App != "a" || errs[0] != nil {
		t.Fatalf("in-flight cell lost: res=%+v err=%v", results[0], errs[0])
	}
	// Whether cell b was already dispatched when the cancel landed is a
	// scheduling race either way is correct; but if the run reports a clean
	// finish, every cell must have run.
	if interrupted == nil && results[1].App != "b" {
		t.Fatalf("clean finish with missing result: %+v", results[1])
	}
}

// TestPoolOnDoneObservesEveryCell pins the pool's progress counters: every
// enqueued cell is counted done, with the instructions it simulated.
func TestPoolOnDoneObservesEveryCell(t *testing.T) {
	cells := makeCells(8)
	sup := &Supervisor{}
	p := &Pool{Workers: 3, Sup: sup}
	if _, _, interrupted := p.Run(cells); interrupted != nil {
		t.Fatal(interrupted)
	}
	cs := sup.Counters.Snapshot()
	if cs.Enqueued != 8 || cs.Done != 8 || cs.Insts != 8*cellInsts {
		t.Fatalf("progress = %d/%d insts=%d, want 8/8 insts=%d", cs.Done, cs.Enqueued, cs.Insts, 8*cellInsts)
	}
}

func TestPoolPanicFailsOnlyThatCell(t *testing.T) {
	cells := makeCells(5)
	cells[2].Run = func(context.Context, *nvp.Arena) (nvp.Result, error) { panic("poisoned cell") }
	sup := &Supervisor{}
	p := &Pool{Workers: 2, Sup: sup}
	results, errs, interrupted := p.Run(cells)
	if interrupted != nil {
		t.Fatal(interrupted)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cell %d: %v (panic must soft-fail, not error)", i, err)
		}
	}
	if results[2].Completed {
		t.Fatal("panicked cell reported Completed")
	}
	for _, i := range []int{0, 1, 3, 4} {
		if !results[i].Completed {
			t.Fatalf("healthy cell %d lost to a neighbour's panic", i)
		}
	}
	if cs := sup.Counters.Snapshot(); cs.Panics != 1 {
		t.Fatalf("Panics = %d, want 1", cs.Panics)
	}
}

func TestPoolEmptyBatch(t *testing.T) {
	p := &Pool{Workers: 4}
	results, errs, interrupted := p.Run(nil)
	if interrupted != nil || len(results) != 0 || len(errs) != 0 {
		t.Fatalf("empty batch: results=%v errs=%v interrupted=%v", results, errs, interrupted)
	}
}
