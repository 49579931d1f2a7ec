package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ipex/internal/energy"
	"ipex/internal/nvp"
)

func TestKeyDeterministicAndDistinct(t *testing.T) {
	type id struct {
		App   string
		Scale float64
	}
	a := Key(id{App: "fft", Scale: 0.5})
	b := Key(id{App: "fft", Scale: 0.5})
	if a != b {
		t.Fatalf("same material hashed differently: %s vs %s", a, b)
	}
	if len(a) != 32 {
		t.Fatalf("key length = %d, want 32 hex digits", len(a))
	}
	if c := Key(id{App: "fft", Scale: 0.25}); c == a {
		t.Fatalf("distinct material collided on %s", c)
	}
}

func TestKeyPanicsOnUnmarshalable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Key(func) did not panic")
		}
	}()
	Key(struct{ F func() }{F: func() {}})
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := CreateJournal(path, "sweepkey")
	if err != nil {
		t.Fatal(err)
	}
	res := nvp.Result{App: "fft", Completed: true, Insts: 123, Cycles: 456, Energy: energy.Breakdown{Compute: 1.0625}}
	if err := j.Append(Entry{Kind: KindCell, Key: "k1", App: "fft", Attempts: 1, Result: &res}); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Entry{Kind: KindFail, Key: "k2", App: "gsme", Attempts: 3, Error: "boom", Stack: "goroutine 1..."}); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, entries, warns, err := ResumeJournal(path, "sweepkey")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(warns) != 0 {
		t.Fatalf("clean journal produced warnings: %v", warns)
	}
	e1 := entries["k1"]
	if e1 == nil || e1.Kind != KindCell || e1.Result == nil {
		t.Fatalf("k1 entry = %+v", e1)
	}
	got, _ := json.Marshal(*e1.Result)
	want, _ := json.Marshal(res)
	if string(got) != string(want) {
		t.Fatalf("journaled result round-trip mismatch:\n got %s\nwant %s", got, want)
	}
	e2 := entries["k2"]
	if e2 == nil || e2.Kind != KindFail || e2.Error != "boom" || !strings.Contains(e2.Stack, "goroutine") {
		t.Fatalf("k2 entry = %+v", e2)
	}
}

func TestJournalRefusesOverwrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := CreateJournal(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, err := CreateJournal(path, "k"); err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("overwriting an existing journal: err = %v, want a -resume hint", err)
	}
}

func TestJournalLaterEntryWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := CreateJournal(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	j.Append(Entry{Kind: KindFail, Key: "cell", App: "fft", Error: "first try failed"})
	res := nvp.Result{App: "fft", Completed: true}
	j.Append(Entry{Kind: KindCell, Key: "cell", App: "fft", Result: &res})
	j.Close()

	j2, entries, _, err := ResumeJournal(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if e := entries["cell"]; e == nil || e.Kind != KindCell {
		t.Fatalf("later cell entry did not win: %+v", e)
	}
}

func TestResumeSkipsCorruptedAndTruncatedLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := CreateJournal(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	res := nvp.Result{App: "fft", Completed: true}
	j.Append(Entry{Kind: KindCell, Key: "good", App: "fft", Result: &res})
	j.Close()
	// A corrupted middle line and a crash-truncated final line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("{\"kind\":\"cell\",THIS IS NOT JSON}\n")
	f.WriteString("{\"kind\":\"cell\",\"key\":\"trunc\",\"result\":{\"App\"")
	f.Close()

	j2, entries, warns, err := ResumeJournal(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(warns) != 2 {
		t.Fatalf("warnings = %v, want exactly 2 (corrupted + truncated)", warns)
	}
	for _, w := range warns {
		if !strings.Contains(w, "re-run") {
			t.Errorf("warning %q does not say the cell will re-run", w)
		}
	}
	if entries["good"] == nil {
		t.Fatal("valid entry lost alongside corrupted ones")
	}
	if entries["trunc"] != nil {
		t.Fatal("truncated entry survived")
	}
}

func TestResumeRejectsWrongSweep(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := CreateJournal(path, "old-sweep")
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if _, _, _, err := ResumeJournal(path, "new-sweep"); err == nil || !strings.Contains(err.Error(), "different sweep") {
		t.Fatalf("resume with changed sweep hash: err = %v", err)
	}
}

func TestResumeRejectsWrongSchemaAndMissingHeader(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "badschema.jsonl")
	os.WriteFile(bad, []byte("{\"kind\":\"header\",\"schema\":\"ipex-journal/v0\",\"sweep\":\"k\"}\n"), 0o644)
	if _, _, _, err := ResumeJournal(bad, "k"); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("wrong schema: err = %v", err)
	}
	headless := filepath.Join(dir, "headless.jsonl")
	os.WriteFile(headless, []byte("{\"kind\":\"cell\",\"key\":\"x\",\"result\":{}}\n"), 0o644)
	if _, _, _, err := ResumeJournal(headless, "k"); err == nil || !strings.Contains(err.Error(), "header") {
		t.Fatalf("missing header: err = %v", err)
	}
}

func TestResumeJournalAppendable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := CreateJournal(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2, _, _, err := ResumeJournal(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	res := nvp.Result{App: "late", Completed: true}
	if err := j2.Append(Entry{Kind: KindCell, Key: "late", Result: &res}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	_, entries, _, err := ResumeJournal(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	if entries["late"] == nil {
		t.Fatal("entry appended after resume was lost")
	}
}

// TestResumeAfterTornTailKeepsNextAppend pins torn-tail recovery across two
// resumes: the first entry appended after resuming a crash-truncated journal
// must not be glued onto the torn fragment, or the next resume discards it
// along with the fragment.
func TestResumeAfterTornTailKeepsNextAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := CreateJournal(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	res := nvp.Result{App: "fft", Completed: true}
	j.Append(Entry{Kind: KindCell, Key: "before", App: "fft", Result: &res})
	j.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("{\"kind\":\"cell\",\"key\":\"torn\",\"result\":{\"App\"")
	f.Close()

	j2, _, warns, err := ResumeJournal(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	if len(warns) != 1 {
		t.Fatalf("warnings = %v, want exactly 1 (the torn tail)", warns)
	}
	if err := j2.Append(Entry{Kind: KindCell, Key: "after", App: "fft", Result: &res}); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	j3, entries, warns, err := ResumeJournal(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	for _, key := range []string{"before", "after"} {
		if entries[key] == nil {
			t.Errorf("entry %q lost across the torn-tail resume", key)
		}
	}
	if entries["torn"] != nil {
		t.Error("torn entry survived")
	}
	if len(warns) != 0 {
		t.Errorf("second resume warnings = %v, want none: the torn tail was not cut", warns)
	}
}
