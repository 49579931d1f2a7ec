package experiments

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"ipex/internal/harness"
	"ipex/internal/tracestat"
)

// TestCellTracingParallelSweep runs one experiment with per-cell tracing and
// full parallelism: every sweep cell must land in its own deterministically
// named JSONL file, each individually analyzable, and the sweep result must
// be unaffected by the tracing.
func TestCellTracingParallelSweep(t *testing.T) {
	dir := t.TempDir()
	o := tiny()
	o.Parallelism = 4
	o.Cells = NewCellTracing(dir)
	o.Cells.SetLabel("fig11")
	o.Sup = &harness.Supervisor{}

	traced, err := Fig11(o)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Fig11(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if traced.String() != plain.String() {
		t.Error("cell tracing changed the experiment result")
	}

	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(ents)) != o.Cells.Files() || len(ents) == 0 {
		t.Fatalf("wrote %d files, Files() = %d", len(ents), o.Cells.Files())
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	if !strings.HasPrefix(names[0], "000001_fig11_") || !strings.HasSuffix(names[0], ".jsonl") {
		t.Errorf("unexpected first cell name %q", names[0])
	}

	// Every cell file is a complete, analyzable single-run stream.
	for _, name := range names {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := tracestat.Analyze(f, tracestat.Options{})
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rep.Runs) != 1 || rep.Runs[0].EndDetail == "" {
			t.Errorf("%s: reconstructed %d run(s), EndDetail %q",
				name, len(rep.Runs), rep.Runs[0].EndDetail)
		}
	}

	// The supervisor's progress counters saw every cell.
	cs := o.Sup.Counters.Snapshot()
	if cs.Done != cs.Enqueued || cs.Done != uint64(len(ents)) || cs.Insts == 0 {
		t.Errorf("progress = %d/%d insts=%d, want %d/%d", cs.Done, cs.Enqueued, cs.Insts, len(ents), len(ents))
	}
}

// TestCellNamesDeterministic: the same command line reserves the same names
// regardless of Parallelism.
func TestCellNamesDeterministic(t *testing.T) {
	runNames := func(par int) []string {
		dir := t.TempDir()
		o := tiny()
		o.Parallelism = par
		o.Cells = NewCellTracing(dir)
		o.Cells.SetLabel("fig11")
		if _, err := Fig11(o); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, 0, len(ents))
		for _, e := range ents {
			names = append(names, e.Name())
		}
		sort.Strings(names)
		return names
	}
	a, b := runNames(1), runNames(8)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Errorf("cell names depend on parallelism:\n%v\nvs\n%v", a, b)
	}
}

func TestProgressNilSafe(t *testing.T) {
	var c *harness.Counters
	if c.Snapshot() != (harness.CounterSnapshot{}) {
		t.Error("nil Counters reported progress")
	}
	var ct *CellTracing
	ct.SetLabel("x")
	if ct.Files() != 0 {
		t.Error("nil CellTracing retained values")
	}
}
