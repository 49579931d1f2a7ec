package resultstore

import (
	"bytes"
	"errors"
	"testing"

	"ipex/internal/trace"
)

// TestDiskWriteFailureDegradesToMemory pins the disk-failure contract: when
// the log append fails (ENOSPC, a dead disk, or — as injected here — a log
// that is already closed; running as root defeats permission-based
// injection), the request itself still succeeds, the body is cached in the
// memory tier, the store.disk_errors counter ticks, and — critically —
// store.failures does not, because `failures` partitions request outcomes
// and this request produced a sound result.
func TestDiskWriteFailureDegradesToMemory(t *testing.T) {
	dir := t.TempDir()
	reg := trace.NewRegistry()
	s, err := New(dir, 4, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	want := []byte(`{"app":"fft"}`)
	calls := 0
	body, outcome, err := s.GetOrCompute("cafe", func() ([]byte, error) {
		calls++
		return want, nil
	})
	if err != nil || outcome != OutcomeComputed || !bytes.Equal(body, want) {
		t.Fatalf("GetOrCompute with failing disk: body=%q outcome=%v err=%v, want computed success", body, outcome, err)
	}
	if got := reg.Counter("store.disk_errors").Load(); got != 1 {
		t.Fatalf("store.disk_errors = %d, want 1", got)
	}
	if got := reg.Counter("store.failures").Load(); got != 0 {
		t.Fatalf("store.failures = %d, want 0 (the request succeeded)", got)
	}

	// The entry degraded to memory-only: a repeat is a memory hit, not a
	// recompute, and serves identical bytes.
	body2, outcome2, err := s.GetOrCompute("cafe", func() ([]byte, error) {
		calls++
		return nil, errors.New("must not recompute")
	})
	if err != nil || outcome2 != OutcomeMemoryHit || !bytes.Equal(body2, want) {
		t.Fatalf("repeat after disk failure: outcome=%v err=%v, want memory hit", outcome2, err)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}

	// Nothing reached the disk tier, so a fresh store over the same
	// directory misses (no mis-cached partial write to trip over).
	s2, err := New(dir, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, _, ok := s2.Get("cafe"); ok {
		t.Fatal("a result whose append failed was served from disk")
	}
}
