package benchio

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// Log is an append-only file of newline-terminated lines, the durable
// record behind the sweep journal and ipexd's result cache. Each Append is
// one write(2) of one whole line, and returns only after an fsync that
// covers it, so an acknowledged line survives a crash. Appends that arrive
// while an fsync is running share the next one (group commit): the first
// appender to find no fsync running leads it, and every line written by
// then is covered. A crash can therefore lose only lines whose Append has
// not returned, and at worst leaves a torn final line, which the next
// OpenLog cuts off.
//
// A failed write or fsync poisons the log: the kernel may have dropped the
// dirty pages it could not write, so a later fsync proves nothing about
// earlier lines. Every later Append returns the first error.
//
// One Log owns its file: line offsets are tracked in memory, so two
// writers on one file would misplace each other's lines.
type Log struct {
	f    *os.File
	sync func(*os.File) error // the fsync; tests substitute a counting one

	mu      sync.Mutex
	synced  sync.Cond // broadcast when a leader's fsync ends
	size    int64     // end offset: every line written so far
	written uint64    // lines written
	covered uint64    // lines covered by a completed fsync
	syncing bool      // a leader's fsync is running
	err     error     // first failed write or fsync; errLogClosed after Close
}

var errLogClosed = errors.New("benchio: log is closed")

// OpenLog opens the log at path for appending. flag adds os.O_CREATE
// (create a missing file) and os.O_EXCL (refuse an existing one) to the
// open; the file's parent directory is synced when flag creates, so the
// new file itself survives a crash.
//
// scan, when non-nil, is called for every whole line in file order with
// its offset and its bytes without the newline; the slice is only valid
// during the call. A scan error closes the file untouched and is returned.
// Bytes after the last newline are a line torn by a crash: after a
// successful scan they are cut off, so the next append starts a line of
// its own, and torn reports that they were.
func OpenLog(path string, flag int, scan func(off int64, line []byte) error) (l *Log, torn bool, err error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|flag, 0o644)
	if err != nil {
		return nil, false, fmt.Errorf("benchio: opening log: %w", err)
	}
	whole, end, err := scanLines(f, scan)
	if err == nil && whole < end {
		torn = true
		if err = f.Truncate(whole); err == nil {
			err = f.Sync()
		}
		if err != nil {
			err = fmt.Errorf("benchio: cutting the torn tail of %s: %w", path, err)
		}
	}
	if err != nil {
		f.Close()
		return nil, false, err
	}
	if flag&os.O_CREATE != 0 {
		// A failed directory sync is not worth refusing the log over, as in
		// AtomicFile.Commit.
		if dir, derr := os.Open(filepath.Dir(path)); derr == nil {
			_ = dir.Sync()
			dir.Close()
		}
	}
	l = &Log{f: f, sync: (*os.File).Sync, size: whole}
	l.synced.L = &l.mu
	return l, torn, nil
}

// scanLines streams the file's whole lines to scan, holding one line at a
// time, and returns the offset just past the last newline and the file's
// length.
func scanLines(f *os.File, scan func(off int64, line []byte) error) (whole, end int64, err error) {
	r := bufio.NewReaderSize(f, 64<<10)
	var long []byte // a line longer than r's buffer, assembled
	for {
		chunk, rerr := r.ReadSlice('\n')
		end += int64(len(chunk))
		if rerr == bufio.ErrBufferFull {
			long = append(long, chunk...)
			continue
		}
		if rerr == io.EOF {
			return whole, end, nil
		}
		if rerr != nil {
			return 0, 0, fmt.Errorf("benchio: reading log: %w", rerr)
		}
		line := chunk[:len(chunk)-1]
		if len(long) > 0 {
			long = append(long, line...)
			line = long
		}
		if scan != nil {
			if err := scan(whole, line); err != nil {
				return 0, 0, err
			}
		}
		whole = end
		long = long[:0]
	}
}

// Append writes line, which must end in its only newline, and returns its
// offset once an fsync covers it.
func (l *Log) Append(line []byte) (off int64, err error) {
	if n := len(line); n == 0 || line[n-1] != '\n' || bytes.IndexByte(line[:n-1], '\n') >= 0 {
		return 0, fmt.Errorf("benchio: a log line must end in its only newline")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	// One write per line, under the lock: lines land whole and in order,
	// so each one's offset is the end of the line before it.
	if _, err := l.f.Write(line); err != nil {
		l.err = fmt.Errorf("benchio: appending to log: %w", err)
		return 0, l.err
	}
	off = l.size
	l.size += int64(len(line))
	l.written++
	return off, l.waitCovered(l.written)
}

// waitCovered returns once an fsync covers line seq, leading one itself
// when none is running. Called with l.mu held.
func (l *Log) waitCovered(seq uint64) error {
	for l.covered < seq && l.err == nil {
		if l.syncing {
			l.synced.Wait()
			continue
		}
		l.syncing = true
		target := l.written
		l.mu.Unlock()
		err := l.sync(l.f)
		l.mu.Lock()
		l.syncing = false
		if err != nil {
			l.err = fmt.Errorf("benchio: syncing log: %w", err)
		} else {
			l.covered = target
		}
		l.synced.Broadcast()
	}
	if l.covered >= seq {
		return nil
	}
	return l.err
}

// Size returns the log's length in bytes: the end of its last line.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// ReadAt reads from the log file; lines Append has returned are complete.
func (l *Log) ReadAt(p []byte, off int64) (int, error) { return l.f.ReadAt(p, off) }

// Close waits for a running fsync, syncs any line not yet covered, and
// closes the file. Later Appends fail; a second Close is a no-op.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == errLogClosed {
		return nil
	}
	err := l.waitCovered(l.written)
	l.err = errLogClosed
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}
