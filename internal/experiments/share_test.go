package experiments

import (
	"testing"

	"ipex/internal/harness"
	"ipex/internal/trace"
)

// TestSharedCellsRenderIdentically runs Figure 10 and the Figure 16 sweep
// through one supervisor, whose memo answers the default-configuration
// cells Figure 16 repeats from Figure 10, and through one supervisor each:
// the rendered figures must be the same strings, and the shared run must
// actually have shared cells. (Figure 11 shares no cell with Figure 10: it
// runs every configuration over the ideal base config.)
func TestSharedCellsRenderIdentically(t *testing.T) {
	render := func(sup10, sup16 *harness.Supervisor) (string, string) {
		o := tiny()
		o.Parallelism = 4
		o.Sup = sup10
		f10, err := Fig10(o)
		if err != nil {
			t.Fatal(err)
		}
		o.Sup = sup16
		f16, err := Fig16(o)
		if err != nil {
			t.Fatal(err)
		}
		return f10.String(), f16.String()
	}
	one := &harness.Supervisor{}
	shared10, shared16 := render(one, one)
	sep10, sep16 := render(&harness.Supervisor{}, &harness.Supervisor{})
	if shared10 != sep10 || shared16 != sep16 {
		t.Errorf("one supervisor rendered\n%s%s\nseparate supervisors rendered\n%s%s", shared10, shared16, sep10, sep16)
	}
	cs := one.Counters.Snapshot()
	if cs.Shared == 0 {
		t.Errorf("no cell shared across Fig10 and Fig16: %+v", cs)
	}
	if cs.Executed != cs.Done {
		t.Errorf("executed %d of %d done cells; a shared cell counts as executed", cs.Executed, cs.Done)
	}
}

// TestSharedCellsSimulateNothing pins the observer contract: a shared
// cell, like a replayed one, writes no per-cell trace file and adds
// nothing to the metrics registry. Figure 12 repeats every cell of
// Figure 10, so through one supervisor it is answered entirely from the
// memo.
func TestSharedCellsSimulateNothing(t *testing.T) {
	o := tiny()
	o.Parallelism = 4
	o.Sup = &harness.Supervisor{}
	o.Metrics = trace.NewRegistry()
	o.Cells = NewCellTracing(t.TempDir())
	if _, err := Fig10(o); err != nil {
		t.Fatal(err)
	}
	files, insts := o.Cells.Files(), o.Metrics.Counter("run.insts").Load()
	before := o.Sup.Counters.Snapshot()
	if _, err := Fig12(o); err != nil {
		t.Fatal(err)
	}
	cs := o.Sup.Counters.Snapshot()
	if shared := cs.Shared - before.Shared; shared != cs.Done-before.Done || shared == 0 {
		t.Fatalf("Fig12 shared %d of its %d cells, want all", shared, cs.Done-before.Done)
	}
	if got := o.Cells.Files(); got != files {
		t.Errorf("shared cells wrote %d trace file(s)", got-files)
	}
	if got := o.Metrics.Counter("run.insts").Load(); got != insts {
		t.Errorf("shared cells added %d instructions to the metrics registry", got-insts)
	}
}
