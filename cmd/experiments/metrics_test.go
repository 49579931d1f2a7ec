package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestMetricsDumpDeterministic runs the same parallel sweep twice and
// requires byte-identical -metrics dumps. The energy gauges sum one float
// per run in whatever order the workers finish; only an order-independent
// sum keeps their last digits stable.
func TestMetricsDumpDeterministic(t *testing.T) {
	dir := t.TempDir()
	var dumps [2][]byte
	for i := range dumps {
		path := filepath.Join(dir, "metrics"+string(rune('a'+i))+".json")
		_, errOut, code := runMain(t, "-exp", "fig10", "-scale", "0.02", "-parallelism", "4", "-metrics", path)
		if code != 0 {
			t.Fatalf("run %d exited %d\nstderr:\n%s", i, code, errOut)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dumps[i] = b
	}
	if !bytes.Contains(dumps[0], []byte(`"energy.total_nj"`)) {
		t.Fatalf("metrics dump has no energy gauge:\n%s", dumps[0])
	}
	if !bytes.Equal(dumps[0], dumps[1]) {
		t.Errorf("two identical -parallelism 4 sweeps dumped different metrics:\n%s\n---\n%s", dumps[0], dumps[1])
	}
}
