// Package resultstore is the content-addressed result cache behind the
// simulation server (cmd/ipexd): an in-memory LRU tier in front of a disk
// tier, addressed by the unified cell identity key (see
// internal/experiments.CellIdentity). Because a key hashes everything that
// determines a simulation's result, a stored body may stand in for a fresh
// simulation byte for byte — the soundness rule is entirely the key's, and
// the store never serves bytes whose integrity it cannot verify.
//
// GetOrCompute coalesces concurrent misses of one key onto a single
// computation (singleflight): N identical requests in flight cost one
// simulation, and the N-1 followers receive the leader's bytes.
//
// The disk tier is one append-only, group-committed log (benchio.Log) under
// the cache directory: a computed body is durable before GetOrCompute
// returns it, and concurrent misses share one fsync.
//
// The package is deliberately clock-free and host-agnostic: recency is
// access order (not wall time), and nothing here imports net/http —
// serving belongs to the command layer.
package resultstore

import (
	"bufio"
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"ipex/internal/benchio"
	"ipex/internal/trace"
)

// EnvelopeSchema identifies the disk-tier line layout; bump on incompatible
// change. Each line of the log is
//
//	ipex-result/v2 <key> <sha256 of body, hex> <body>\n
//
// A line naming a different schema is a miss, never an error: the cell is
// simply re-simulated and appended again. Bodies therefore hold no newline
// (ipexd's are compact JSON); one that does stays in memory only.
const EnvelopeSchema = "ipex-result/v2"

// logName is the disk tier's file under the cache directory. The per-key
// files of ipex-result/v1 directories are never read.
const logName = "results.log"

// Outcome classifies how a lookup was served.
type Outcome int

const (
	// OutcomeMemoryHit: the body came from the in-memory LRU tier.
	OutcomeMemoryHit Outcome = iota
	// OutcomeDiskHit: the body was read (and verified) from the disk tier
	// and promoted back into memory.
	OutcomeDiskHit
	// OutcomeComputed: both tiers missed; the caller's compute function ran
	// and its body was stored in both tiers.
	OutcomeComputed
	// OutcomeCoalesced: another caller was already computing this key; the
	// result is that computation's, shared without running compute again.
	OutcomeCoalesced
)

// String names the outcome for response headers and logs.
func (o Outcome) String() string {
	switch o {
	case OutcomeMemoryHit:
		return "hit"
	case OutcomeDiskHit:
		return "hit-disk"
	case OutcomeComputed:
		return "miss"
	case OutcomeCoalesced:
		return "coalesced"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Hit reports whether the outcome avoided a computation entirely.
func (o Outcome) Hit() bool { return o == OutcomeMemoryHit || o == OutcomeDiskHit }

// call is one in-flight computation; followers block on done.
type call struct {
	done chan struct{}
	body []byte
	err  error
}

// Store is the two-tier content-addressed cache. All methods are safe for
// concurrent use. Returned bodies are shared read-only slices: callers
// must not mutate them.
type Store struct {
	path string       // the disk tier's log; "" disables the tier
	log  *benchio.Log // nil without a disk tier
	cap  int          // max in-memory entries (>= 1)

	mu       sync.Mutex
	lru      *list.List // of *entry; front = most recently used
	mem      map[string]*list.Element
	inflight map[string]*call
	index    map[string]span // key -> its latest log line

	// Counters are nil-safe handles; a Store built without a registry
	// discards them.
	memHits     *trace.Counter
	diskHits    *trace.Counter
	computed    *trace.Counter
	coalesced   *trace.Counter
	evicted     *trace.Counter
	diskEvicted *trace.Counter
	corrupt     *trace.Counter
	failures    *trace.Counter
	diskErrors  *trace.Counter

	// clock, when installed via SetClock, feeds the latency histograms
	// below; nil leaves them silent, preserving the package's clock-free
	// default. Latencies go only to the registry, never into a body.
	clock           trace.Clock
	computeSeconds  *trace.Histogram
	diskReadSeconds *trace.Histogram
}

type entry struct {
	key  string
	body []byte
}

// span locates one log line, newline included.
type span struct {
	off int64
	n   int
}

// New builds a store with an in-memory LRU of at most memEntries bodies
// (minimum 1) over a disk tier in dir ("" keeps the store purely
// in-memory). The directory and its log are created if missing, and an
// existing log is indexed by one streaming scan that keeps no body in
// memory; its torn final line, if any, is cut off. reg, when non-nil,
// receives the store.* counters (mem_hits, disk_hits, computed, coalesced,
// evicted, corrupt, failures, disk_errors).
func New(dir string, memEntries int, reg *trace.Registry) (*Store, error) {
	if memEntries < 1 {
		memEntries = 1
	}
	s := &Store{
		cap:      memEntries,
		lru:      list.New(),
		mem:      make(map[string]*list.Element),
		inflight: make(map[string]*call),

		memHits:     reg.Counter("store.mem_hits"),
		diskHits:    reg.Counter("store.disk_hits"),
		computed:    reg.Counter("store.computed"),
		coalesced:   reg.Counter("store.coalesced"),
		evicted:     reg.Counter("store.evicted"),
		diskEvicted: reg.Counter("store.disk_evicted"),
		corrupt:     reg.Counter("store.corrupt"),
		failures:    reg.Counter("store.failures"),
		diskErrors:  reg.Counter("store.disk_errors"),

		computeSeconds:  reg.Histogram("store.compute_seconds", nil),
		diskReadSeconds: reg.Histogram("store.disk_read_seconds", nil),
	}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	// The last line of each key wins; a line without the v2 layout counts
	// as corrupt.
	s.path, s.index = filepath.Join(dir, logName), make(map[string]span)
	log, _, err := benchio.OpenLog(s.path, os.O_CREATE, func(off int64, line []byte) error {
		if key, _, _, ok := parseLine(line); ok {
			s.index[string(key)] = span{off, len(line) + 1}
		} else {
			s.corrupt.Inc()
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s.log = log
	return s, nil
}

// Close syncs and closes the disk tier's log. Results computed afterwards
// are kept in memory only; a second Close is a no-op.
func (s *Store) Close() error {
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}

// SetClock installs the monotonic clock behind the store's latency
// histograms (store.compute_seconds, store.disk_read_seconds). Call it
// before serving traffic; it is not synchronized against in-flight
// requests. A nil clock (the default) keeps the store clock-free and the
// histograms silent.
func (s *Store) SetClock(c trace.Clock) { s.clock = c }

// Rates derives the cache hit ratio and coalesce rate from the outcome
// counters, over successfully served requests (mem hits + disk hits +
// computed + coalesced). Both are 0 before the first serve. They are
// computed at read time — scrape-time gauges, not stored state.
func (s *Store) Rates() (hitRatio, coalesceRate float64) {
	mem, disk := s.memHits.Load(), s.diskHits.Load()
	co := s.coalesced.Load()
	total := mem + disk + co + s.computed.Load()
	if total == 0 {
		return 0, 0
	}
	return float64(mem+disk) / float64(total), float64(co) / float64(total)
}

// EvictDiskOver shrinks the disk tier to at most maxBytes by dropping the
// oldest whole lines of its log: the kept suffix is copied through
// benchio.AtomicFile, which replaces the log in one rename, and the index is
// shifted to match. It reports the results dropped (superseded lines are not
// counted) and the bytes freed. It is a startup operation — the service
// calls it once before listening, so a node restarted with a smaller budget
// converges immediately — and it touches only the disk tier: the memory LRU
// is governed solely by its entry cap, so a body already promoted to memory
// keeps serving hits even after its disk entry is evicted. maxBytes <= 0
// means no cap (nothing is evicted).
func (s *Store) EvictDiskOver(maxBytes int64) (evicted int, freed int64, err error) {
	if s.log == nil || maxBytes <= 0 {
		return 0, 0, nil
	}
	size := s.log.Size()
	if size <= maxBytes {
		return 0, 0, nil
	}
	// Keep from the first line that starts at or after size-maxBytes: the
	// byte before it, at or after size-maxBytes-1, is a newline.
	cut := size - maxBytes - 1
	r := bufio.NewReader(io.NewSectionReader(s.log, cut, maxBytes+1))
	for {
		chunk, rerr := r.ReadSlice('\n')
		cut += int64(len(chunk))
		if rerr == nil {
			break
		}
		if rerr != bufio.ErrBufferFull {
			return 0, 0, fmt.Errorf("resultstore: evicting: %w", rerr)
		}
	}
	a, err := benchio.NewAtomicFile(s.path)
	if err != nil {
		return 0, 0, fmt.Errorf("resultstore: evicting: %w", err)
	}
	if _, err := io.Copy(a, io.NewSectionReader(s.log, cut, size-cut)); err != nil {
		a.Discard()
		return 0, 0, fmt.Errorf("resultstore: evicting: %w", err)
	}
	if err := a.Commit(); err != nil {
		return 0, 0, fmt.Errorf("resultstore: evicting: %w", err)
	}
	index := make(map[string]span, len(s.index))
	for key, sp := range s.index {
		if sp.off < cut {
			evicted++
		} else {
			index[key] = span{sp.off - cut, sp.n}
		}
	}
	s.diskEvicted.Add(uint64(evicted))
	// The old log is an unlinked file now, and all its lines are covered.
	s.log.Close()
	log, _, err := benchio.OpenLog(s.path, 0, nil)
	if err != nil {
		return evicted, cut, fmt.Errorf("resultstore: evicting: %w", err)
	}
	s.log, s.index = log, index
	return evicted, cut, nil
}

// MemLen returns the number of bodies currently in the memory tier.
func (s *Store) MemLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Get looks a key up in both tiers without computing anything: memory
// first, then a verified disk read (promoted into memory on success).
func (s *Store) Get(key string) ([]byte, Outcome, bool) {
	s.mu.Lock()
	if el, ok := s.mem[key]; ok {
		s.lru.MoveToFront(el)
		body := el.Value.(*entry).body
		s.mu.Unlock()
		s.memHits.Inc()
		return body, OutcomeMemoryHit, true
	}
	s.mu.Unlock()
	if body, ok := s.readDisk(key); ok {
		s.insert(key, body)
		s.diskHits.Inc()
		return body, OutcomeDiskHit, true
	}
	return nil, OutcomeComputed, false
}

// GetOrCompute serves key from the memory tier, the disk tier, an already
// in-flight computation of the same key (coalesced), or — last — by running
// compute and storing its body in both tiers. A compute error is returned
// to the leader and every coalesced follower, and nothing is cached: the
// next request for the key computes again.
func (s *Store) GetOrCompute(key string, compute func() ([]byte, error)) ([]byte, Outcome, error) {
	s.mu.Lock()
	if el, ok := s.mem[key]; ok {
		s.lru.MoveToFront(el)
		body := el.Value.(*entry).body
		s.mu.Unlock()
		s.memHits.Inc()
		return body, OutcomeMemoryHit, nil
	}
	if c, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		<-c.done
		// A failed leader's followers count as failures (each caller will
		// report its own error), not as coalesced serves — the counters
		// must partition requests exactly.
		if c.err != nil {
			s.failures.Inc()
			return nil, OutcomeCoalesced, c.err
		}
		s.coalesced.Inc()
		return c.body, OutcomeCoalesced, c.err
	}
	c := &call{done: make(chan struct{})}
	s.inflight[key] = c
	s.mu.Unlock()

	outcome := OutcomeDiskHit
	body, ok := s.readDisk(key)
	if !ok {
		outcome = OutcomeComputed
		start := trace.Now(s.clock)
		body, c.err = compute()
		if c.err == nil {
			trace.Observe(s.clock, s.computeSeconds, start)
		}
	}
	c.body = body
	if c.err == nil {
		if outcome == OutcomeComputed {
			// A disk-write failure (ENOSPC, permissions, dead disk) degrades
			// the entry to memory-only; the body itself is sound, so the
			// request still succeeds and is cached where it can be. It counts
			// as a disk error, not a failure — `failures` partitions request
			// outcomes, and this request succeeded.
			if werr := s.writeDisk(key, body); werr != nil {
				s.diskErrors.Inc()
			}
		}
		s.insert(key, body)
	}

	s.mu.Lock()
	delete(s.inflight, key)
	s.mu.Unlock()
	close(c.done)

	if c.err != nil {
		s.failures.Inc()
		return nil, outcome, c.err
	}
	switch outcome {
	case OutcomeDiskHit:
		s.diskHits.Inc()
	case OutcomeComputed:
		s.computed.Inc()
	}
	return body, outcome, nil
}

// insert adds (or refreshes) a memory-tier entry, evicting from the LRU
// tail past capacity. Evicted bodies survive on the disk tier.
func (s *Store) insert(key string, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.mem[key]; ok {
		el.Value.(*entry).body = body
		s.lru.MoveToFront(el)
		return
	}
	s.mem[key] = s.lru.PushFront(&entry{key: key, body: body})
	for s.lru.Len() > s.cap {
		back := s.lru.Back()
		e := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.mem, e.key)
		s.evicted.Inc()
	}
}

// writeDisk appends the body's line to the log and indexes it once the
// fsync covering it returns; a crash before then loses nothing that was
// acknowledged.
func (s *Store) writeDisk(key string, body []byte) error {
	if s.log == nil {
		return nil
	}
	line := encodeLine(key, body)
	off, err := s.log.Append(line)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.index[key] = span{off, len(line)}
	s.mu.Unlock()
	return nil
}

// readDisk fetches and verifies a disk-tier entry, timing the successful
// reads (a miss — usually a fast ENOENT — would only skew the latency
// series).
func (s *Store) readDisk(key string) ([]byte, bool) {
	start := trace.Now(s.clock)
	body, ok := s.loadDisk(key)
	if ok {
		trace.Observe(s.clock, s.diskReadSeconds, start)
	}
	return body, ok
}

// loadDisk reads and verifies the key's indexed log line. Any defect —
// foreign schema, key mismatch, checksum mismatch, a short read — is a
// miss: the caller re-simulates and appends a new line, which later
// lookups find. An indexed line that fails verification counts as corrupt.
func (s *Store) loadDisk(key string) ([]byte, bool) {
	if s.log == nil {
		return nil, false
	}
	s.mu.Lock()
	sp, ok := s.index[key]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	line := make([]byte, sp.n)
	if _, err := s.log.ReadAt(line, sp.off); err != nil || line[sp.n-1] != '\n' {
		s.corrupt.Inc()
		return nil, false
	}
	body, ok := verifyLine(line[:sp.n-1], key)
	if !ok {
		s.corrupt.Inc()
	}
	return body, ok
}

// encodeLine lays out one disk-tier line, newline included.
func encodeLine(key string, body []byte) []byte {
	sum := sha256.Sum256(body)
	line := make([]byte, 0, len(EnvelopeSchema)+len(key)+2*len(sum)+len(body)+4)
	line = append(line, EnvelopeSchema...)
	line = append(line, ' ')
	line = append(line, key...)
	line = append(line, ' ')
	line = hex.AppendEncode(line, sum[:])
	line = append(line, ' ')
	line = append(line, body...)
	return append(line, '\n')
}

// parseLine splits a disk-tier line, without its newline, into key, hex
// checksum and body. ok is false unless the line has the v2 layout; the
// checksum is not verified.
func parseLine(line []byte) (key, sum, body []byte, ok bool) {
	rest, ok := bytes.CutPrefix(line, []byte(EnvelopeSchema+" "))
	if !ok {
		return nil, nil, nil, false
	}
	key, rest, ok = bytes.Cut(rest, []byte(" "))
	if !ok || len(key) == 0 {
		return nil, nil, nil, false
	}
	sum, body, ok = bytes.Cut(rest, []byte(" "))
	if !ok || len(sum) != hex.EncodedLen(sha256.Size) {
		return nil, nil, nil, false
	}
	return key, sum, body, true
}

// verifyLine returns the body of a disk-tier line, without its newline,
// when the line has the v2 layout, names key, and its body matches its
// checksum.
func verifyLine(line []byte, key string) ([]byte, bool) {
	k, sum, body, ok := parseLine(line)
	if !ok || string(k) != key {
		return nil, false
	}
	got := sha256.Sum256(body)
	var hexGot [2 * sha256.Size]byte
	hex.Encode(hexGot[:], got[:])
	if !bytes.Equal(hexGot[:], sum) {
		return nil, false
	}
	return body, true
}
