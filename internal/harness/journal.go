package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"

	"ipex/internal/benchio"
	"ipex/internal/nvp"
)

// Schema identifies the journal line layout; bump on incompatible change.
// A journal whose header names a different schema is rejected on resume —
// replaying entries written by a different layout would silently corrupt a
// sweep.
const Schema = "ipex-journal/v1"

// Entry kinds. A header line opens every journal; cell lines carry a
// replayable result; fail lines record a cell that was given up on (panic
// or exhausted retries) and is re-run on resume.
const (
	KindHeader = "header"
	KindCell   = "cell"
	KindFail   = "fail"
)

// Sink receives journal entries. *Journal is the durable file-backed
// implementation; a Supervisor writes through this interface so callers
// that only observe completed cells (benchmarks counting them, say) can
// install an in-memory sink instead.
type Sink interface {
	Append(Entry) error
}

// Entry is one journal line.
type Entry struct {
	Kind string `json:"kind"`
	// Schema and Sweep are set on the header line only: the layout version
	// and the content hash of the sweep definition (scale, trace seed, app
	// list, supervision knobs). A resume against a different sweep hash is
	// rejected — the journaled cells belong to a different experiment.
	Schema string `json:"schema,omitempty"`
	Sweep  string `json:"sweep,omitempty"`

	// Key is the cell's content-hash identity (see Key); App labels it for
	// humans reading the journal.
	Key string `json:"key,omitempty"`
	App string `json:"app,omitempty"`
	// Attempts is how many times the cell ran before this entry was written
	// (1 for a first-try success).
	Attempts int `json:"attempts,omitempty"`
	// Result is the complete simulation result of a KindCell entry. JSON
	// round-trips Go float64s bit-exactly (shortest-representation
	// marshaling), so a replayed result is bit-identical to the simulated
	// one — the property the resume golden tests pin.
	Result *nvp.Result `json:"result,omitempty"`
	// Error and Stack describe a KindFail entry; Stack carries the
	// recovered panic's goroutine stack.
	Error string `json:"error,omitempty"`
	Stack string `json:"stack,omitempty"`
}

// Journal is an append-only JSONL record of completed sweep cells, kept in
// a group-committed benchio.Log. Appends are concurrency-safe and atomic at
// the line level: each entry is one write of one line, and Append returns
// only after an fsync that covers it (appends from concurrent workers share
// one). A crash can at worst truncate the final line, which resume detects
// and cuts off (the cell is simply re-run).
type Journal struct {
	log  *benchio.Log
	path string
}

// CreateJournal starts a fresh journal at path for the sweep identified by
// sweepKey. It refuses to overwrite an existing file: a prior journal is
// either resumable (pass it to ResumeJournal) or stale, and destroying it
// silently would discard exactly the progress this package exists to keep.
func CreateJournal(path, sweepKey string) (*Journal, error) {
	log, _, err := benchio.OpenLog(path, os.O_CREATE|os.O_EXCL, nil)
	if err != nil {
		if errors.Is(err, fs.ErrExist) {
			return nil, fmt.Errorf("harness: journal %s already exists; resume it with -resume or remove it to start over", path)
		}
		return nil, fmt.Errorf("harness: %w", err)
	}
	j := &Journal{log: log, path: path}
	if err := j.Append(Entry{Kind: KindHeader, Schema: Schema, Sweep: sweepKey}); err != nil {
		log.Close()
		os.Remove(path)
		return nil, err
	}
	return j, nil
}

// ParseLine decodes and validates one journal line. It is the single line
// parser behind ResumeJournal, and the surface FuzzJournalLine hardens: any
// input must either yield a structurally valid entry or an error, never a
// panic and never a half-valid entry (a KindCell without a key or result,
// say) that replay could mistake for a simulation.
func ParseLine(raw []byte) (Entry, error) {
	var e Entry
	if err := json.Unmarshal(raw, &e); err != nil {
		return Entry{}, fmt.Errorf("harness: corrupted journal line: %w", err)
	}
	switch e.Kind {
	case KindHeader:
		if e.Schema == "" {
			return Entry{}, fmt.Errorf("harness: header line without a schema")
		}
	case KindCell:
		if e.Key == "" || e.Result == nil {
			return Entry{}, fmt.Errorf("harness: incomplete cell entry")
		}
	case KindFail:
		if e.Key == "" {
			return Entry{}, fmt.Errorf("harness: fail entry without a key")
		}
	default:
		return Entry{}, fmt.Errorf("harness: unknown journal entry kind %q", e.Kind)
	}
	return e, nil
}

// ResumeJournal reopens an existing journal for the sweep identified by
// sweepKey and loads its replayable entries. It returns the journal (opened
// for further appends), the entry map keyed by cell hash (later entries
// win; only KindCell entries carry a result — KindFail cells re-run), and
// human-readable warnings for any corrupted or truncated lines that were
// skipped. A journal whose header is missing, carries a different schema,
// or hashes a different sweep definition is rejected with a clear error. A
// header must precede the first cell, so a rejected file is left untouched
// unless it holds no valid line at all.
func ResumeJournal(path, sweepKey string) (*Journal, map[string]*Entry, []string, error) {
	entries := make(map[string]*Entry)
	var warnings []string
	var reject error
	noHeader := fmt.Errorf("harness: journal %s has no valid header line; it is not a resumable journal", path)
	line := 0
	sawHeader := false
	log, torn, err := benchio.OpenLog(path, 0, func(_ int64, raw []byte) error {
		line++
		if len(raw) == 0 {
			return nil
		}
		e, perr := ParseLine(raw)
		if perr != nil {
			warnings = append(warnings, fmt.Sprintf("%s:%d: skipping corrupted journal line (%v); its cell, if any, will be re-run", path, line, perr))
			return nil
		}
		switch {
		case e.Kind == KindHeader && e.Schema != Schema:
			reject = fmt.Errorf("harness: journal %s has schema %q, this binary writes %q; re-run without -resume", path, e.Schema, Schema)
		case e.Kind == KindHeader && e.Sweep != sweepKey:
			reject = fmt.Errorf("harness: journal %s was written for a different sweep (journal %s, current %s): scale, seed, app set, or supervision flags changed — remove the journal or rerun the original command line", path, e.Sweep, sweepKey)
		case e.Kind == KindHeader:
			sawHeader = true
		case !sawHeader:
			reject = noHeader
		default:
			entries[e.Key] = &e
		}
		return reject
	})
	if err == nil && !sawHeader {
		log.Close()
		reject = noHeader
	}
	if reject != nil {
		return nil, nil, nil, reject
	}
	if err != nil {
		return nil, nil, nil, fmt.Errorf("harness: resuming journal: %w", err)
	}
	if torn {
		// Only whole lines were replayed; the fragment is cut off so the next
		// append is not glued onto it (and lost with it on the next resume).
		warnings = append(warnings, fmt.Sprintf("%s: truncated a torn final line; its cell, if any, will be re-run", path))
	}
	return &Journal{log: log, path: path}, entries, warnings, nil
}

// Append durably writes one entry as a single JSON line. Nil-receiver safe:
// an unjournaled sweep pays one nil compare per cell.
func (j *Journal) Append(e Entry) error {
	if j == nil {
		return nil
	}
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("harness: encoding journal entry: %w", err)
	}
	if _, err := j.log.Append(append(b, '\n')); err != nil {
		return fmt.Errorf("harness: appending to journal: %w", err)
	}
	return nil
}

// Path returns the journal's file path ("" for a nil journal).
func (j *Journal) Path() string {
	if j == nil {
		return ""
	}
	return j.path
}

// Close syncs and closes the journal file. Nil-receiver safe.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	return j.log.Close()
}
