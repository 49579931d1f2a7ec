package benchio

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestLogGroupCommit pins group commit: N concurrent Appends each return
// only after an fsync that started once their line was written, and they
// share fsyncs. The first fsync is held until every line is written, so the
// other N-1 appends must all ride on one more: two fsyncs in all. A leader
// covers every line written when it starts, not only its own.
func TestLogGroupCommit(t *testing.T) {
	const n = 16
	l, _, err := OpenLog(filepath.Join(t.TempDir(), "log"), os.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	var syncs atomic.Int64
	var covered atomic.Int64 // end of the bytes the last finished fsync covers
	l.sync = func(f *os.File) error {
		if syncs.Add(1) == 1 {
			for {
				l.mu.Lock()
				all := l.written == n
				l.mu.Unlock()
				if all {
					break
				}
				runtime.Gosched()
			}
		}
		l.mu.Lock()
		end := l.size
		l.mu.Unlock()
		if err := f.Sync(); err != nil {
			return err
		}
		covered.Store(end)
		return nil
	}

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			line := []byte(fmt.Sprintf("line %d\n", i))
			off, err := l.Append(line)
			if err != nil {
				t.Error(err)
				return
			}
			if end := off + int64(len(line)); covered.Load() < end {
				t.Errorf("line %d (ends at %d) returned before an fsync covered it (covered %d)", i, end, covered.Load())
			}
		}(i)
	}
	wg.Wait()
	if got := syncs.Load(); got != 2 {
		t.Errorf("%d appends took %d fsyncs, want 2", n, got)
	}

	// Whichever follower leads, its fsync covers every line written when it
	// starts: with two lines written and none covered, leading for the
	// first covers both.
	l.mu.Lock()
	for _, line := range []string{"x\n", "y\n"} {
		if _, err := l.f.WriteString(line); err != nil {
			t.Fatal(err)
		}
		l.size += int64(len(line))
		l.written++
	}
	err = l.waitCovered(l.written - 1)
	lines, written := l.covered, l.written
	l.mu.Unlock()
	if err != nil || lines != written {
		t.Errorf("leading for line %d covered %d of %d lines (err %v), want all", written-1, lines, written, err)
	}

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := syncs.Load(); got != 3 {
		t.Errorf("fsyncs = %d after Close of a covered log, want 3", got)
	}
}

// TestOpenLogCutsTornTail pins crash recovery: OpenLog hands every whole
// line to scan with its offset (a line longer than the read buffer
// included), cuts the torn fragment after the last newline, and the next
// append lands as a line of its own at the cut.
func TestOpenLogCutsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	long := bytes.Repeat([]byte("x"), 100<<10)
	content := "a\n" + string(long) + "\nfragment"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	type line struct {
		off  int64
		text string
	}
	var got []line
	scan := func(off int64, b []byte) error {
		got = append(got, line{off, string(b)})
		return nil
	}
	l, torn, err := OpenLog(path, 0, scan)
	if err != nil {
		t.Fatal(err)
	}
	if !torn || len(got) != 2 || got[0] != (line{0, "a"}) || got[1] != (line{2, string(long)}) {
		t.Fatalf("torn=%v, %d line(s) scanned; want the torn tail and two whole lines", torn, len(got))
	}
	end := int64(3 + len(long))
	if l.Size() != end {
		t.Fatalf("Size = %d after the cut, want %d", l.Size(), end)
	}
	if off, err := l.Append([]byte("b\n")); err != nil || off != end {
		t.Fatalf("Append after the cut: off=%d err=%v, want off %d", off, err, end)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := l.Append([]byte("c\n")); err == nil {
		t.Fatal("Append after Close succeeded")
	}

	got = nil
	l2, torn, err := OpenLog(path, 0, scan)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if torn || len(got) != 3 || got[2] != (line{end, "b"}) {
		t.Fatalf("reopened: torn=%v lines=%d; want 3 whole lines ending in b at %d", torn, len(got), end)
	}
}

// TestOpenLogScanErrorLeavesFileUntouched: a scan that rejects the file
// aborts the open before the torn tail is cut.
func TestOpenLogScanErrorLeavesFileUntouched(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	content := []byte("foreign\ntorn")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	reject := errors.New("not my format")
	if _, _, err := OpenLog(path, 0, func(int64, []byte) error { return reject }); !errors.Is(err, reject) {
		t.Fatalf("OpenLog = %v, want the scan's error", err)
	}
	if b, err := os.ReadFile(path); err != nil || !bytes.Equal(b, content) {
		t.Fatalf("rejected log changed: %q, %v", b, err)
	}
}

// TestLogFailurePoisons: a line that is not one newline-terminated line is
// refused without writing, and after a failed fsync every append fails,
// because a later fsync could not vouch for the lost pages.
func TestLogFailurePoisons(t *testing.T) {
	l, _, err := OpenLog(filepath.Join(t.TempDir(), "log"), os.O_CREATE, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, bad := range []string{"", "no newline", "two\nlines\n"} {
		if _, err := l.Append([]byte(bad)); err == nil {
			t.Errorf("Append(%q) succeeded", bad)
		}
	}
	if l.Size() != 0 {
		t.Fatalf("refused lines wrote %d bytes", l.Size())
	}
	dead := errors.New("input/output error")
	l.sync = func(*os.File) error { return dead }
	if _, err := l.Append([]byte("lost\n")); !errors.Is(err, dead) {
		t.Fatalf("Append with a failing fsync = %v, want %v", err, dead)
	}
	l.sync = (*os.File).Sync
	if _, err := l.Append([]byte("after\n")); !errors.Is(err, dead) {
		t.Fatalf("Append after a failed fsync = %v, want the first failure", err)
	}
}
