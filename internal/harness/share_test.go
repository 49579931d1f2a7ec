package harness

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"ipex/internal/nvp"
)

// dupCells returns n cells over keys distinct keys (cell i has key i%keys)
// whose bodies count their calls per key.
func dupCells(n, keys int, calls []atomic.Uint64) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		k := i % keys
		app := fmt.Sprintf("app%02d", k)
		cells[i] = Cell{Key: Key(app), Label: app, Run: func(context.Context, *nvp.Arena) (nvp.Result, error) {
			calls[k].Add(1)
			return nvp.Result{App: app, Completed: true, Insts: uint64(100 + k)}, nil
		}}
	}
	return cells
}

// journalLines returns the journal's cell lines grouped by key.
func journalLines(t *testing.T, path string) map[string][]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	byKey := map[string][]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		e, err := ParseLine(sc.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if e.Kind == KindCell {
			byKey[e.Key] = append(byKey[e.Key], sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return byKey
}

func TestPoolSimulatesEachKeyOnce(t *testing.T) {
	const n, keys = 30, 4
	calls := make([]atomic.Uint64, keys)
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := CreateJournal(path, "sweep")
	if err != nil {
		t.Fatal(err)
	}
	sup := &Supervisor{Journal: j}
	results, errs, interrupted := (&Pool{Workers: 4, Sup: sup}).Run(dupCells(n, keys, calls))
	if interrupted != nil {
		t.Fatal(interrupted)
	}
	j.Close()
	for i, res := range results {
		if errs[i] != nil || res.App != fmt.Sprintf("app%02d", i%keys) || res.Insts != uint64(100+i%keys) {
			t.Fatalf("cell %d: res=%+v err=%v", i, res, errs[i])
		}
	}
	for k := range calls {
		if got := calls[k].Load(); got != 1 {
			t.Errorf("key %d simulated %d times, want once", k, got)
		}
	}
	if cs := sup.Counters.Snapshot(); cs.Executed != n || cs.Shared != n-keys {
		t.Errorf("executed %d shared %d, want %d and %d", cs.Executed, cs.Shared, n, n-keys)
	}
	byKey := journalLines(t, path)
	if len(byKey) != keys {
		t.Fatalf("journal holds %d keys, want %d", len(byKey), keys)
	}
	total := 0
	for key, lines := range byKey {
		total += len(lines)
		for _, l := range lines[1:] {
			if l != lines[0] {
				t.Errorf("key %s journaled differently:\n%s\n%s", key, lines[0], l)
			}
		}
	}
	if total != n {
		t.Errorf("journal holds %d cell entries, want one per cell (%d)", total, n)
	}
}

func TestFailedLeaderFollowersExecute(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail func() (nvp.Result, error)
		// wantErr: the failure surfaces as the leader's cell error (a
		// panic soft-fails instead).
		wantErr bool
	}{
		{"error", func() (nvp.Result, error) { return nvp.Result{}, errors.New("hard failure") }, true},
		{"panic", func() (nvp.Result, error) { panic("injected") }, false},
		{"timeout", func() (nvp.Result, error) { return nvp.Result{}, Transient(ErrCellTimeout) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Uint64
			cells := make([]Cell, 3)
			for i := range cells {
				cells[i] = Cell{Key: "k", Label: "fft", Run: func(context.Context, *nvp.Arena) (nvp.Result, error) {
					if calls.Add(1) == 1 {
						return tc.fail()
					}
					return okResult("fft"), nil
				}}
			}
			// One worker makes the first cell the leader.
			sup := &Supervisor{}
			results, errs, _ := (&Pool{Workers: 1, Sup: sup}).Run(cells)
			if (errs[0] != nil) != tc.wantErr || results[0].Completed {
				t.Fatalf("leader: res=%+v err=%v", results[0], errs[0])
			}
			for i := 1; i < len(cells); i++ {
				if errs[i] != nil || !results[i].Completed {
					t.Fatalf("follower %d: res=%+v err=%v", i, results[i], errs[i])
				}
			}
			if got := calls.Load(); got != 3 {
				t.Errorf("body ran %d times, want 3 (each follower executes for itself)", got)
			}
			if cs := sup.Counters.Snapshot(); cs.Shared != 0 {
				t.Errorf("shared %d cells of a failed leader", cs.Shared)
			}
		})
	}
}

func TestConcurrentDuplicatesCoalesce(t *testing.T) {
	const n = 8
	var calls atomic.Uint64
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{Key: "k", Label: "fft", Run: func(context.Context, *nvp.Arena) (nvp.Result, error) {
			calls.Add(1)
			// Hold the leader so the other workers arrive while it runs.
			time.Sleep(20 * time.Millisecond)
			return okResult("fft"), nil
		}}
	}
	sup := &Supervisor{}
	results, errs, _ := (&Pool{Workers: n, Sup: sup}).Run(cells)
	for i := range cells {
		if errs[i] != nil || !results[i].Completed {
			t.Fatalf("cell %d: res=%+v err=%v", i, results[i], errs[i])
		}
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("body ran %d times, want 1", got)
	}
	if cs := sup.Counters.Snapshot(); cs.Executed != n || cs.Shared != n-1 {
		t.Errorf("executed %d shared %d, want %d and %d", cs.Executed, cs.Shared, n, n-1)
	}
}

func TestRunCellNeverShares(t *testing.T) {
	var calls atomic.Uint64
	c := Cell{Key: "k", Label: "fft", Run: func(context.Context, *nvp.Arena) (nvp.Result, error) {
		calls.Add(1)
		return okResult("fft"), nil
	}}
	sup := &Supervisor{}
	// A Pool run first fills the memo; direct calls must still simulate.
	(&Pool{Workers: 1, Sup: sup}).Run([]Cell{c})
	for i := 0; i < 2; i++ {
		if res, err, _ := sup.RunCell(c, nil); err != nil || !res.Completed {
			t.Fatalf("res=%+v err=%v", res, err)
		}
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("body ran %d times, want 3", got)
	}
	if cs := sup.Counters.Snapshot(); cs.Shared != 0 || cs.Executed != 3 {
		t.Errorf("counters = %+v", cs)
	}
}
