package resultstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"ipex/internal/trace"
)

func mustStore(t *testing.T, dir string, cap int, reg *trace.Registry) *Store {
	t.Helper()
	s, err := New(dir, cap, reg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestMissThenHitByteIdentical pins the service's core guarantee: the bytes
// a hit serves are exactly the bytes the fresh computation produced, through
// every tier (memory, disk, and a fresh store over the same directory).
func TestMissThenHitByteIdentical(t *testing.T) {
	dir := t.TempDir()
	s := mustStore(t, dir, 8, nil)
	want := []byte(`{"app":"fft","cycles":12345}`)

	got, outcome, err := s.GetOrCompute("k1", func() ([]byte, error) { return want, nil })
	if err != nil || outcome != OutcomeComputed || !bytes.Equal(got, want) {
		t.Fatalf("fresh: got outcome=%v err=%v body=%q", outcome, err, got)
	}
	got, outcome, err = s.GetOrCompute("k1", func() ([]byte, error) {
		return nil, errors.New("compute must not run on a hit")
	})
	if err != nil || outcome != OutcomeMemoryHit || !bytes.Equal(got, want) {
		t.Fatalf("memory hit: got outcome=%v err=%v body=%q", outcome, err, got)
	}

	// A brand-new store over the same directory: the disk tier alone must
	// reproduce the fresh bytes (restart persistence).
	s2 := mustStore(t, dir, 8, nil)
	got, outcome, ok := s2.Get("k1")
	if !ok || outcome != OutcomeDiskHit || !bytes.Equal(got, want) {
		t.Fatalf("disk hit after restart: got ok=%v outcome=%v body=%q", ok, outcome, got)
	}
	// ...and the disk hit was promoted into memory.
	if _, outcome, _ := s2.Get("k1"); outcome != OutcomeMemoryHit {
		t.Fatalf("promotion: second lookup got %v, want memory hit", outcome)
	}
}

// TestSingleflight proves N concurrent identical requests cost exactly one
// computation: a leader runs compute while every follower blocks on its
// completion and shares the same body.
func TestSingleflight(t *testing.T) {
	s := mustStore(t, "", 8, trace.NewRegistry())
	const followers = 16

	var calls atomic.Int64
	leaderIn := make(chan struct{})
	gate := make(chan struct{})
	want := []byte("singleflight-body")

	results := make([][]byte, followers+1)
	outcomes := make([]Outcome, followers+1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		body, o, err := s.GetOrCompute("k", func() ([]byte, error) {
			calls.Add(1)
			close(leaderIn) // inflight registration is visible from here on
			<-gate
			return want, nil
		})
		if err != nil {
			t.Errorf("leader: %v", err)
		}
		results[0], outcomes[0] = body, o
	}()
	<-leaderIn

	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, o, err := s.GetOrCompute("k", func() ([]byte, error) {
				calls.Add(1)
				return nil, errors.New("follower compute must never run")
			})
			if err != nil {
				t.Errorf("follower %d: %v", i, err)
			}
			results[i], outcomes[i] = body, o
		}(i)
	}
	close(gate)
	wg.Wait()

	if n := calls.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	computed, coalescedOrHit := 0, 0
	for i, o := range outcomes {
		if !bytes.Equal(results[i], want) {
			t.Fatalf("caller %d got %q, want %q", i, results[i], want)
		}
		switch o {
		case OutcomeComputed:
			computed++
		case OutcomeCoalesced, OutcomeMemoryHit:
			// A follower arriving after the leader published is a memory
			// hit; mid-flight it coalesces. Both avoid the computation.
			coalescedOrHit++
		default:
			t.Fatalf("caller %d got outcome %v", i, o)
		}
	}
	if computed != 1 || coalescedOrHit != followers {
		t.Fatalf("outcome partition: computed=%d shared=%d, want 1 and %d", computed, coalescedOrHit, followers)
	}
}

// TestLRUEvictionDiskRefill pins the two-tier interplay: eviction from the
// bounded memory tier loses nothing, because the disk tier refills (and
// re-promotes) the entry on the next lookup.
func TestLRUEvictionDiskRefill(t *testing.T) {
	reg := trace.NewRegistry()
	s := mustStore(t, t.TempDir(), 2, reg)
	body := func(k string) []byte { return []byte("body-of-" + k) }
	for _, k := range []string{"k1", "k2", "k3"} {
		k := k
		if _, _, err := s.GetOrCompute(k, func() ([]byte, error) { return body(k), nil }); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.MemLen(); n != 2 {
		t.Fatalf("memory tier holds %d entries, want 2 (cap)", n)
	}
	if reg.Counter("store.evicted").Load() != 1 {
		t.Fatalf("evicted counter = %d, want 1", reg.Counter("store.evicted").Load())
	}
	// k1 was the LRU victim: it must come back from disk, byte-identical.
	got, outcome, ok := s.Get("k1")
	if !ok || outcome != OutcomeDiskHit || !bytes.Equal(got, body("k1")) {
		t.Fatalf("evicted entry: ok=%v outcome=%v body=%q", ok, outcome, got)
	}
	// Refill evicted k2 (now the LRU tail); memory stays at capacity.
	if n := s.MemLen(); n != 2 {
		t.Fatalf("after refill memory tier holds %d entries, want 2", n)
	}
}

// TestCorruptDiskEntry pins the corruption path: a log line that fails
// verification is a miss, the cell is recomputed, and its new line, which
// supersedes the defective one, verifies from a fresh store.
func TestCorruptDiskEntry(t *testing.T) {
	for name, mangle := range map[string]func([]byte) []byte{
		"flipped-byte": func(line []byte) []byte {
			out := append([]byte(nil), line...)
			out[len(out)-1] ^= 0xFF
			return out
		},
		"truncated": func(line []byte) []byte { return line[:len(line)-4] },
		"foreign-schema": func(line []byte) []byte {
			return bytes.Replace(line, []byte(EnvelopeSchema), []byte("ipex-result/v1"), 1)
		},
		"no-header": func([]byte) []byte { return []byte("no header at all") },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustStore(t, dir, 1, nil)
			want := []byte("sound-body")
			if _, _, err := s.GetOrCompute("k", func() ([]byte, error) { return want, nil }); err != nil {
				t.Fatal(err)
			}
			if _, _, err := s.GetOrCompute("other", func() ([]byte, error) { return []byte("x"), nil }); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			// Mangle k's line, the log's first, in place.
			path := filepath.Join(dir, logName)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			nl := bytes.IndexByte(raw, '\n')
			if err := os.WriteFile(path, append(mangle(raw[:nl]), raw[nl:]...), 0o644); err != nil {
				t.Fatal(err)
			}

			reg := trace.NewRegistry()
			s1 := mustStore(t, dir, 1, reg)
			var calls atomic.Int64
			got, outcome, err := s1.GetOrCompute("k", func() ([]byte, error) {
				calls.Add(1)
				return want, nil
			})
			if err != nil || outcome != OutcomeComputed || calls.Load() != 1 {
				t.Fatalf("corrupt entry: outcome=%v err=%v calls=%d, want recompute", outcome, err, calls.Load())
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("recomputed body %q, want %q", got, want)
			}
			if reg.Counter("store.corrupt").Load() == 0 {
				t.Fatal("corrupt counter not bumped")
			}
			if err := s1.Close(); err != nil {
				t.Fatal(err)
			}
			s2 := mustStore(t, dir, 1, nil)
			if got, outcome, ok := s2.Get("k"); !ok || outcome != OutcomeDiskHit || !bytes.Equal(got, want) {
				t.Fatalf("recomputed entry: ok=%v outcome=%v body=%q", ok, outcome, got)
			}
		})
	}
}

// TestComputeErrorNotCached pins the failure contract: a compute error is
// returned but never stored, so the next request runs compute again.
func TestComputeErrorNotCached(t *testing.T) {
	dir := t.TempDir()
	s := mustStore(t, dir, 8, trace.NewRegistry())
	boom := errors.New("transient simulation failure")
	if _, _, err := s.GetOrCompute("k", func() ([]byte, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the compute error", err)
	}
	if s.MemLen() != 0 {
		t.Fatal("failed computation left a memory-tier entry")
	}
	if n := s.log.Size(); n != 0 {
		t.Fatalf("failed computation left %d bytes in the disk tier", n)
	}
	want := []byte("second-try")
	got, outcome, err := s.GetOrCompute("k", func() ([]byte, error) { return want, nil })
	if err != nil || outcome != OutcomeComputed || !bytes.Equal(got, want) {
		t.Fatalf("retry after failure: outcome=%v err=%v body=%q", outcome, err, got)
	}
}

// TestMemoryOnly pins the dir=="" mode: no disk tier, eviction is loss, and
// Close has nothing to close.
func TestMemoryOnly(t *testing.T) {
	s := mustStore(t, "", 1, nil)
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("memory-only Close: %v", err)
		}
	}()
	if _, _, err := s.GetOrCompute("k1", func() ([]byte, error) { return []byte("a"), nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.GetOrCompute("k2", func() ([]byte, error) { return []byte("b"), nil }); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get("k1"); ok {
		t.Fatal("evicted memory-only entry still served")
	}
	if body, outcome, ok := s.Get("k2"); !ok || outcome != OutcomeMemoryHit || !bytes.Equal(body, []byte("b")) {
		t.Fatalf("resident entry: ok=%v outcome=%v body=%q", ok, outcome, body)
	}
}

// TestOutcomeStrings pins the response-header vocabulary.
func TestOutcomeStrings(t *testing.T) {
	cases := map[Outcome]string{
		OutcomeMemoryHit: "hit",
		OutcomeDiskHit:   "hit-disk",
		OutcomeComputed:  "miss",
		OutcomeCoalesced: "coalesced",
	}
	for o, want := range cases {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(o), o.String(), want)
		}
	}
	if !OutcomeMemoryHit.Hit() || !OutcomeDiskHit.Hit() || OutcomeComputed.Hit() || OutcomeCoalesced.Hit() {
		t.Error("Hit() misclassifies an outcome")
	}
	if s := Outcome(99).String(); s != fmt.Sprintf("Outcome(%d)", 99) {
		t.Errorf("unknown outcome prints %q", s)
	}
}

// TestEvictDiskOver: the startup pass must drop the oldest whole lines
// until the log fits the byte cap, keep the newer ones readable through the
// evicting store's own index and from a fresh store, and keep appending at
// the right offsets afterwards.
func TestEvictDiskOver(t *testing.T) {
	dir := t.TempDir()
	reg := trace.NewRegistry()
	// cap 1: lookups of all but the newest key go to the disk tier.
	s := mustStore(t, dir, 1, reg)
	body := bytes.Repeat([]byte("x"), 100)
	put := func(s *Store, key string) {
		t.Helper()
		if _, _, err := s.GetOrCompute(key, func() ([]byte, error) { return body, nil }); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		put(s, fmt.Sprintf("k%d", i))
	}
	// Same-length keys and bodies: every line has one length.
	line := int64(len(encodeLine("k0", body)))

	// Cap to exactly the three newest lines: k0 and k1 must go.
	evicted, freed, err := s.EvictDiskOver(3 * line)
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 2 || freed != 2*line {
		t.Fatalf("evicted %d (%d bytes), want 2 (%d bytes)", evicted, freed, 2*line)
	}
	if info, err := os.Stat(filepath.Join(dir, logName)); err != nil || info.Size() != 3*line || info.Mode().Perm() != 0o644 {
		t.Fatalf("log after eviction: %v, %v; want %d bytes, mode 0644", info, err, 3*line)
	}
	if got := reg.Counter("store.disk_evicted").Load(); got != 2 {
		t.Errorf("store.disk_evicted = %d, want 2", got)
	}
	put(s, "k5")
	check := func(who string, s *Store) {
		t.Helper()
		for i, want := range []bool{false, false, true, true, true, true} {
			key := fmt.Sprintf("k%d", i)
			got, outcome, ok := s.Get(key)
			if ok != want || (ok && (outcome == OutcomeComputed || !bytes.Equal(got, body))) {
				t.Errorf("%s: %s served=%v (%v), want %v", who, key, ok, outcome, want)
			}
		}
	}
	check("evicting store", s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustStore(t, dir, 1, nil)
	check("fresh store", s2)

	// Under the cap already: a second pass is a no-op.
	if n, b, err := s2.EvictDiskOver(4 * line); n != 0 || b != 0 || err != nil {
		t.Fatalf("second pass evicted %d (%d bytes), err %v; want a no-op", n, b, err)
	}
	// No cap means no eviction.
	if n, _, _ := s2.EvictDiskOver(0); n != 0 {
		t.Fatalf("maxBytes=0 evicted %d entries, want none", n)
	}
}

// TestEvictDiskNeverTouchesMemory: a body living in the memory LRU must
// keep serving memory hits after its disk entry is evicted — the two tiers
// have independent retention policies.
func TestEvictDiskNeverTouchesMemory(t *testing.T) {
	dir := t.TempDir()
	s := mustStore(t, dir, 8, nil)
	want := []byte("resident body")
	if _, _, err := s.GetOrCompute("hot", func() ([]byte, error) { return want, nil }); err != nil {
		t.Fatal(err)
	}
	memBefore := s.MemLen()

	// Evict everything from disk (cap of one byte).
	evicted, _, err := s.EvictDiskOver(1)
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 1 {
		t.Fatalf("evicted %d disk entries, want 1", evicted)
	}
	if n := s.log.Size(); n != 0 {
		t.Fatalf("%d log bytes survived a 1-byte cap", n)
	}

	if got := s.MemLen(); got != memBefore {
		t.Fatalf("memory tier shrank from %d to %d during disk eviction", memBefore, got)
	}
	got, outcome, ok := s.Get("hot")
	if !ok || outcome != OutcomeMemoryHit || !bytes.Equal(got, want) {
		t.Fatalf("after disk eviction: ok=%v outcome=%v body=%q, want a memory hit with the original body", ok, outcome, got)
	}
}

// TestTornTailCutAtStartup pins crash recovery of the disk tier: a line torn
// by a crash is cut off when the store opens, so the next append starts a
// line of its own and survives the next restart.
func TestTornTailCutAtStartup(t *testing.T) {
	dir := t.TempDir()
	s := mustStore(t, dir, 8, nil)
	body := func(k string) []byte { return []byte("body-of-" + k) }
	if _, _, err := s.GetOrCompute("before", func() ([]byte, error) { return body("before"), nil }); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(EnvelopeSchema + " torn 00")
	f.Close()

	s2 := mustStore(t, dir, 8, nil)
	if _, _, err := s2.GetOrCompute("after", func() ([]byte, error) { return body("after"), nil }); err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	reg := trace.NewRegistry()
	s3 := mustStore(t, dir, 8, reg)
	for _, key := range []string{"before", "after"} {
		if got, outcome, ok := s3.Get(key); !ok || outcome != OutcomeDiskHit || !bytes.Equal(got, body(key)) {
			t.Errorf("%s after the torn-tail restart: ok=%v outcome=%v body=%q", key, ok, outcome, got)
		}
	}
	if n := reg.Counter("store.corrupt").Load(); n != 0 {
		t.Errorf("store.corrupt = %d, want 0: the torn tail was not cut", n)
	}
}

// TestRestartServesEveryKeyFromDisk: results computed by concurrent misses
// (whose appends share fsyncs) are each served byte-identical as disk hits
// by a restarted store.
func TestRestartServesEveryKeyFromDisk(t *testing.T) {
	dir := t.TempDir()
	s := mustStore(t, dir, 4, nil)
	const n = 32
	body := func(i int) []byte {
		return []byte(fmt.Sprintf(`{"cell":%d,"pad":%q}`, i, bytes.Repeat([]byte("y"), i)))
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, _, err := s.GetOrCompute(fmt.Sprintf("k%d", i), func() ([]byte, error) { return body(i), nil }); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := mustStore(t, dir, 4, nil)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("k%d", i)
		if got, outcome, err := s2.GetOrCompute(key, func() ([]byte, error) {
			return nil, errors.New("compute must not run on a restarted store")
		}); err != nil || outcome != OutcomeDiskHit || !bytes.Equal(got, body(i)) {
			t.Errorf("%s: err=%v outcome=%v body=%q", key, err, outcome, got)
		}
	}
}

// TestV1DirectoryReadsAsMisses: a cache directory of ipex-result/v1 per-key
// files is never read; each of its keys is a plain miss that recomputes.
func TestV1DirectoryReadsAsMisses(t *testing.T) {
	dir := t.TempDir()
	key := "00c0ffee00c0ffee00c0ffee00c0ffee00c0ffee00c0ffee00c0ffee00c0ffee"
	old := []byte("old-body")
	sum := sha256.Sum256(old)
	v1 := fmt.Sprintf("ipex-result/v1 %s %s\n%s", key, hex.EncodeToString(sum[:]), old)
	if err := os.WriteFile(filepath.Join(dir, key), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	reg := trace.NewRegistry()
	s := mustStore(t, dir, 8, reg)
	if _, _, ok := s.Get(key); ok {
		t.Fatal("a v1 per-key file was served")
	}
	want := []byte("new-body")
	if got, outcome, err := s.GetOrCompute(key, func() ([]byte, error) { return want, nil }); err != nil || outcome != OutcomeComputed || !bytes.Equal(got, want) {
		t.Fatalf("v1 key: outcome=%v err=%v body=%q, want a recompute", outcome, err, got)
	}
	if n := reg.Counter("store.corrupt").Load(); n != 0 {
		t.Errorf("store.corrupt = %d, want 0: v1 files are not entries", n)
	}
}
