package harness

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
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

// countingRemote is a RemoteRunner that counts its calls per key and
// answers each through answer(call number for that key, label).
type countingRemote struct {
	answer func(n int, label string) (nvp.Result, bool, error)

	mu    sync.Mutex
	calls map[string]int
}

func (r *countingRemote) RunRemote(key, label string, _ []byte) (nvp.Result, bool, error) {
	r.mu.Lock()
	if r.calls == nil {
		r.calls = map[string]int{}
	}
	r.calls[key]++
	n := r.calls[key]
	r.mu.Unlock()
	return r.answer(n, label)
}

// remoteCells returns n remotable cells over keys distinct keys (cell i
// has key i%keys) whose bodies count their calls per key.
func remoteCells(n, keys int, calls []atomic.Uint64) []Cell {
	cells := dupCells(n, keys, calls)
	for i := range cells {
		cells[i].RemoteReq = []byte(`{}`)
	}
	return cells
}

func remoteOK(_ int, label string) (nvp.Result, bool, error) {
	return nvp.Result{App: label, Completed: true, Insts: 7}, true, nil
}

func TestRemoteCalledOncePerKeyAcrossBatches(t *testing.T) {
	const n, keys = 24, 4
	calls := make([]atomic.Uint64, keys)
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := CreateJournal(path, "sweep")
	if err != nil {
		t.Fatal(err)
	}
	r := &countingRemote{answer: remoteOK}
	sup := &Supervisor{Journal: j, Remote: r}
	pool := &Pool{Workers: 4, Sup: sup}
	// The second batch repeats every key of the first.
	for batch := 0; batch < 2; batch++ {
		results, errs, interrupted := pool.Run(remoteCells(n, keys, calls))
		if interrupted != nil {
			t.Fatal(interrupted)
		}
		for i, res := range results {
			if errs[i] != nil || res.App != fmt.Sprintf("app%02d", i%keys) || res.Insts != 7 {
				t.Fatalf("batch %d cell %d: res=%+v err=%v", batch, i, res, errs[i])
			}
		}
	}
	j.Close()
	if len(r.calls) != keys {
		t.Errorf("runner saw %d keys, want %d", len(r.calls), keys)
	}
	for key, got := range r.calls {
		if got != 1 {
			t.Errorf("key %s sent %d times, want once", key, got)
		}
	}
	for k := range calls {
		if got := calls[k].Load(); got != 0 {
			t.Errorf("key %d simulated locally %d times", k, got)
		}
	}
	if cs := sup.Counters.Snapshot(); cs.Remote != 2*n || cs.Executed != 0 || cs.Shared != 0 {
		t.Errorf("remote %d executed %d shared %d, want %d, 0 and 0", cs.Remote, cs.Executed, cs.Shared, 2*n)
	}
	byKey := journalLines(t, path)
	total := 0
	for key, lines := range byKey {
		total += len(lines)
		e, err := ParseLine([]byte(lines[0]))
		if err != nil {
			t.Fatal(err)
		}
		if e.Key != key || e.Attempts != 1 || e.Result == nil || e.Result.Insts != 7 || e.App != e.Result.App {
			t.Errorf("leader entry %+v", e)
		}
		for _, l := range lines[1:] {
			if l != lines[0] {
				t.Errorf("key %s journaled differently:\n%s\n%s", key, lines[0], l)
			}
		}
	}
	if total != 2*n {
		t.Errorf("journal holds %d cell entries, want one per cell (%d)", total, 2*n)
	}
}

// countSink counts the entries appended to it.
type countSink struct{ n atomic.Uint64 }

func (s *countSink) Append(Entry) error {
	s.n.Add(1)
	return nil
}

func TestReplayedKeyResolvesNothing(t *testing.T) {
	const n = 6
	calls := make([]atomic.Uint64, 1)
	cells := remoteCells(n, 1, calls)
	res := okResult("app00")
	r := &countingRemote{answer: remoteOK}
	sink := &countSink{}
	sup := &Supervisor{Journal: sink, Remote: r,
		Replay: map[string]*Entry{cells[0].Key: {Kind: KindCell, Key: cells[0].Key, App: "app00", Result: &res}}}
	results, errs, _ := (&Pool{Workers: 3, Sup: sup}).Run(cells)
	for i := range cells {
		if errs[i] != nil || !results[i].Completed || results[i].App != "app00" || results[i].Insts != 0 {
			t.Fatalf("cell %d: res=%+v err=%v", i, results[i], errs[i])
		}
	}
	if len(r.calls) != 0 || calls[0].Load() != 0 {
		t.Errorf("replayed key reached the runner %d times and the body %d times", len(r.calls), calls[0].Load())
	}
	if cs := sup.Counters.Snapshot(); cs.Replayed != n || cs.Executed != 0 || cs.Remote != 0 {
		t.Errorf("counters = %+v", cs)
	}
	if got := sink.n.Load(); got != 0 {
		t.Errorf("replayed cells journaled %d entries", got)
	}
}

func TestDeclinedLeaderSimulatesOnce(t *testing.T) {
	const n = 5
	calls := make([]atomic.Uint64, 1)
	r := &countingRemote{answer: func(int, string) (nvp.Result, bool, error) {
		return nvp.Result{}, false, nil
	}}
	sup := &Supervisor{Remote: r}
	results, errs, _ := (&Pool{Workers: 2, Sup: sup}).Run(remoteCells(n, 1, calls))
	for i := range results {
		if errs[i] != nil || results[i].Insts != 100 {
			t.Fatalf("cell %d: res=%+v err=%v", i, results[i], errs[i])
		}
	}
	if got := r.calls[Key("app00")]; got != 1 {
		t.Errorf("runner offered the key %d times, want once", got)
	}
	if got := calls[0].Load(); got != 1 {
		t.Errorf("body ran %d times, want once", got)
	}
	if cs := sup.Counters.Snapshot(); cs.Executed != n || cs.Shared != n-1 || cs.Remote != 0 {
		t.Errorf("counters = %+v", cs)
	}
}

func TestRemoteFailureFollowersResolve(t *testing.T) {
	const n = 3
	calls := make([]atomic.Uint64, 1)
	r := &countingRemote{answer: func(call int, label string) (nvp.Result, bool, error) {
		if call == 1 {
			return nvp.Result{}, true, errors.New("server rejected the cell")
		}
		return remoteOK(call, label)
	}}
	sup := &Supervisor{Remote: r}
	// One worker makes the first cell the leader.
	results, errs, _ := (&Pool{Workers: 1, Sup: sup}).Run(remoteCells(n, 1, calls))
	if errs[0] == nil {
		t.Fatalf("leader: res=%+v, want the remote failure", results[0])
	}
	for i := 1; i < n; i++ {
		if errs[i] != nil || results[i].Insts != 7 {
			t.Fatalf("follower %d: res=%+v err=%v", i, results[i], errs[i])
		}
	}
	if got := r.calls[Key("app00")]; got != n {
		t.Errorf("runner called %d times, want %d (each follower resolves for itself)", got, n)
	}
	if cs := sup.Counters.Snapshot(); cs.Remote != n-1 || cs.Failures != 1 || cs.Shared != 0 || cs.Executed != 0 {
		t.Errorf("counters = %+v", cs)
	}
}
