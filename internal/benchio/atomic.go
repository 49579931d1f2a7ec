// Package benchio keeps artifacts whole across interrupts and crashes:
// AtomicFile installs a profile, trace or metrics dump in one rename, and
// Log is the group-committed append-only file behind the sweep journal and
// ipexd's result cache.
package benchio

import (
	"fmt"
	"os"
	"path/filepath"
)

// AtomicFile writes an artifact via the write-temp-then-rename discipline:
// bytes stream into a hidden temporary in the destination's directory, and
// the destination path only ever changes in one atomic rename at Commit.
// An interrupt (or a Discard after a failed producer) therefore never
// leaves a torn trace, metrics, profile, or result file — the destination
// either keeps its previous content or receives the complete new one.
//
// The zero value is not usable; start from NewAtomicFile. Exactly one of
// Commit or Discard should be called; both are idempotent afterwards.
type AtomicFile struct {
	f    *os.File
	path string
	done bool
}

// NewAtomicFile opens a temporary file next to path (same filesystem, so
// the final rename is atomic). The temporary is named after the target so
// a crash leaves an identifiable ".tmp" orphan rather than a torn target,
// and it is given mode 0644, like the logs OpenLog creates, rather than
// CreateTemp's 0600, which the rename would install.
func NewAtomicFile(path string) (*AtomicFile, error) {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, "."+base+".tmp*")
	if err != nil {
		return nil, fmt.Errorf("benchio: %w", err)
	}
	if err := f.Chmod(0o644); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, fmt.Errorf("benchio: %w", err)
	}
	return &AtomicFile{f: f, path: path}, nil
}

// Write streams bytes into the temporary.
func (a *AtomicFile) Write(p []byte) (int, error) { return a.f.Write(p) }

// Name returns the destination path the Commit rename will install.
func (a *AtomicFile) Name() string { return a.path }

// Commit syncs and closes the temporary, then renames it over the
// destination. After a successful Commit the destination holds the complete
// content; on any error the temporary is removed and the destination is
// left untouched.
func (a *AtomicFile) Commit() error {
	if a.done {
		return nil
	}
	a.done = true
	if err := a.f.Sync(); err != nil {
		a.f.Close()
		os.Remove(a.f.Name())
		return fmt.Errorf("benchio: syncing %s: %w", a.path, err)
	}
	if err := a.f.Close(); err != nil {
		os.Remove(a.f.Name())
		return fmt.Errorf("benchio: closing %s: %w", a.path, err)
	}
	if err := os.Rename(a.f.Name(), a.path); err != nil {
		os.Remove(a.f.Name())
		return fmt.Errorf("benchio: installing %s: %w", a.path, err)
	}
	// Make the new directory entry durable too; a failed directory sync is
	// not worth failing the artifact over, so the error is dropped.
	if dir, err := os.Open(filepath.Dir(a.path)); err == nil {
		_ = dir.Sync()
		dir.Close()
	}
	return nil
}

// Discard closes and removes the temporary, leaving the destination as it
// was. Safe to defer alongside a Commit on the success path.
func (a *AtomicFile) Discard() {
	if a.done {
		return
	}
	a.done = true
	a.f.Close()
	os.Remove(a.f.Name())
}
