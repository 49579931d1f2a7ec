package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ipex/internal/harness"
	"ipex/internal/nvp"
)

// ipexdBin is an ipexd built from this checkout for the remote-sweep tests.
var ipexdBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		panic(err)
	}
	ipexdBin = filepath.Join(dir, "ipexd")
	build := exec.Command("go", "build", "-o", ipexdBin, "ipex/cmd/ipexd")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		panic("building ipexd: " + err.Error())
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tinyConfig shrinks a workload to three apps at a small scale and two
// timed runs.
func tinyConfig(t *testing.T, workload string, traced bool) config {
	cfg := defaultConfig()
	cfg.workload, cfg.traced = workload, traced
	cfg.seconds, cfg.minRuns, cfg.setupReps = 0.001, 2, 2
	cfg.sweepScale, cfg.simScale = 0.01, 0.02
	cfg.apps = []string{"fft", "gsme", "adpcme"}
	cfg.root, cfg.work, cfg.ipexd = "..", t.TempDir(), ipexdBin
	return cfg
}

type contract struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// summary parses the last line of a printed report.
func summary(t *testing.T, res *result, cfg config) (map[string]json.RawMessage, string) {
	t.Helper()
	var buf bytes.Buffer
	if err := res.print(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var out map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, buf.String())
	}
	return out, buf.String()
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at a tiny scale,
// untraced and traced, and checks that the summary line carries exactly
// the metrics BENCHMARK.json names, with their units, and no failure.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	c := readContract(t)
	for _, w := range c.Workloads {
		for _, traced := range []bool{false, true} {
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			cfg := tinyConfig(t, w.Name, traced)
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			out, report := summary(t, res, cfg)
			if len(out) != 4 {
				t.Errorf("%s: summary keys %d, want correct, attempted, failed, metrics", w.Name, len(out))
			}
			var metrics map[string]struct {
				Value *float64
				Unit  string
			}
			if err := json.Unmarshal(out["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if len(metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(metrics), len(want))
			}
			for _, m := range want {
				got, ok := metrics[m.Name]
				if !ok || got.Value == nil || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want a value in %s", w.Name, traced, m.Name, got, m.Unit)
				}
				if !traced && ok && got.Value != nil && *got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, *got.Value)
				}
			}
			if !traced {
				for _, name := range []string{"cpu_s", "wall_s", "cold_wall_s", "warm_wall_s", "sim_minst_per_s", "req_p50_ms", "req_p99_ms"} {
					if !strings.Contains(report, fmt.Sprintf(`{"name":%q,`, name)) {
						t.Errorf("%s: the record line lacks the measured figure %s", w.Name, name)
					}
				}
			}
			if string(out["correct"]) != "true" || string(out["failed"]) != "0" || res.errorRate() != 0 {
				t.Errorf("%s traced=%v: checks failed:\n%s", w.Name, traced, report)
			}
		}
	}
}

// TestOutputMismatchRaisesErrorRate corrupts each workload's expected
// output and requires the next run to count the mismatch as a failure.
func TestOutputMismatchRaisesErrorRate(t *testing.T) {
	for name, corrupt := range map[string]func(bench){
		"sweep-journal": func(b bench) { b.(*sweepJournal).ref = append(b.(*sweepJournal).ref, '!') },
		"simcore":       func(b bench) { b.(*simcore).ref[0].Cycles++ },
		"remote-sweep":  func(b bench) { b.(*remoteSweep).ref = nil },
	} {
		cfg := tinyConfig(t, name, false)
		b := workloads[name].new(cfg)
		res := newResult(cfg)
		if _, err := b.setup(); err != nil {
			t.Fatal(err)
		}
		if err := b.reference(res); err != nil {
			t.Fatal(err)
		}
		corrupt(b)
		if _, err := b.run(res, false); err != nil {
			t.Fatal(err)
		}
		if res.failed == 0 || res.errorRate() <= 0 {
			t.Errorf("%s: a corrupted reference left error_rate at %v", name, res.errorRate())
		}
	}
}

// TestMissingJournalEntryRaisesErrorRate drops one cell line from a
// journal and requires the journal check to fail.
func TestMissingJournalEntryRaisesErrorRate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := harness.CreateJournal(path, "sweep")
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "b", "c"} {
		if err := j.Append(harness.Entry{Kind: harness.KindCell, Key: key, App: "fft", Result: &nvp.Result{Insts: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	res := newResult(tinyConfig(t, "sweep-journal", false))
	if _, err := checkJournal(res, path, 3); err != nil || res.failed != 0 {
		t.Fatalf("complete journal: err %v, %d failed", err, res.failed)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(b), "\n")
	if err := os.WriteFile(path, []byte(strings.Join(append(lines[:2], lines[3:]...), "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := checkJournal(res, path, 3); err != nil {
		t.Fatal(err)
	}
	if res.errorRate() <= 0 {
		t.Error("a missing journal entry left error_rate at 0")
	}
}

// TestQuartilesMatchPython pins summarize to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) ==
	// [2.75, 5.5, 8.25]
	d := summarize([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if d.Q1 != 2.75 || d.Median != 5.5 || d.Q3 != 8.25 || d.Min != 1 || d.Max != 10 || d.N != 10 {
		t.Errorf("summarize = %+v", d)
	}
}
