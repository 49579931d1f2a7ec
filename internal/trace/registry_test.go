package trace

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestNilRegistryAndHandles(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Load() != 0 {
		t.Error("nil counter retained a value")
	}
	g := r.Gauge("y")
	g.Add(1.5)
	if g.Load() != 0 {
		t.Error("nil gauge retained a value")
	}
	if len(r.Snapshot()) != 0 {
		t.Error("nil registry snapshot not empty")
	}
}

func TestCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("icache.pf_issued")
	c.Inc()
	c.Add(9)
	if got := r.Counter("icache.pf_issued").Load(); got != 10 {
		t.Errorf("counter = %d, want 10 (same handle by name)", got)
	}
	g := r.Gauge("energy.cache_nj")
	g.Add(1.25)
	g.Add(2.5)
	if got := g.Load(); got != 3.75 {
		t.Errorf("gauge = %g, want 3.75", got)
	}

	snap := r.Snapshot()
	if snap["icache.pf_issued"] != uint64(10) {
		t.Errorf("snapshot counter = %v", snap["icache.pf_issued"])
	}
	if snap["energy.cache_nj"] != 3.75 {
		t.Errorf("snapshot gauge = %v", snap["energy.cache_nj"])
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("n").Inc()
				r.Gauge("f").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Load(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("f").Load(); got != 8000 {
		t.Errorf("gauge = %g, want 8000", got)
	}
}

func TestWriteJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b").Add(2)
	r.Counter("a").Add(1)
	r.Gauge("c").Add(0.5)
	var s1, s2 strings.Builder
	if err := r.WriteJSON(&s1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&s2); err != nil {
		t.Fatal(err)
	}
	if s1.String() != s2.String() {
		t.Error("two dumps of the same registry differ")
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(s1.String()), &m); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if len(m) != 3 {
		t.Errorf("dump has %d keys, want 3", len(m))
	}
}

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"run.insts":        "ipex_run_insts",
		"icache.pf_wiped":  "ipex_icache_pf_wiped",
		"energy.total_nj":  "ipex_energy_total_nj",
		"weird metric/1$x": "ipex_weird_metric_1_x",
		"0starts.digit":    "ipex_0starts_digit",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWriteProm(t *testing.T) {
	r := NewRegistry()
	r.Counter("run.outages").Add(3)
	r.Counter("icache.misses").Add(7)
	r.Gauge("energy.total_nj").Add(12.5)
	var s1, s2 strings.Builder
	if err := r.WriteProm(&s1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteProm(&s2); err != nil {
		t.Fatal(err)
	}
	if s1.String() != s2.String() {
		t.Error("two Prometheus dumps of the same registry differ")
	}
	out := s1.String()
	for _, want := range []string{
		"# TYPE ipex_run_outages counter",
		"ipex_run_outages 3",
		"# TYPE ipex_icache_misses counter",
		"# TYPE ipex_energy_total_nj gauge",
		"ipex_energy_total_nj 12.5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Prometheus dump missing %q:\n%s", want, out)
		}
	}
	// Counters come before gauges, each group name-sorted.
	if strings.Index(out, "ipex_icache_misses") > strings.Index(out, "ipex_run_outages") {
		t.Error("counters not name-sorted")
	}
	// Nil registry writes nothing and does not panic.
	var empty strings.Builder
	if err := (*Registry)(nil).WriteProm(&empty); err != nil || empty.Len() != 0 {
		t.Errorf("nil registry: err=%v out=%q", err, empty.String())
	}
}

// TestGaugeOrderIndependent pins the exact accumulation: the same terms
// added in opposite orders load the same value (a float64 running sum
// differs here), and non-finite terms still poison the sum like a float.
func TestGaugeOrderIndependent(t *testing.T) {
	terms := []float64{1e16, 1, -1e16, 0.1, 0.2, 0.3, 1e-3, 12345.678}
	fwd, rev := &Gauge{}, &Gauge{}
	for i := range terms {
		fwd.Add(terms[i])
		rev.Add(terms[len(terms)-1-i])
	}
	if fwd.Load() != rev.Load() {
		t.Errorf("forward sum %v != reverse sum %v", fwd.Load(), rev.Load())
	}
	var plainFwd, plainRev float64
	for i := range terms {
		plainFwd += terms[i]
		plainRev += terms[len(terms)-1-i]
	}
	if plainFwd == plainRev {
		t.Fatalf("terms do not exercise rounding order: both plain sums are %v", plainFwd)
	}
	one := &Gauge{}
	one.Add(0.1)
	if one.Load() != 0.1 {
		t.Errorf("single term loads as %v, want 0.1", one.Load())
	}
	one.Add(math.Inf(1))
	if !math.IsInf(one.Load(), 1) {
		t.Errorf("sum with +Inf = %v, want +Inf", one.Load())
	}
	one.Set(2.5)
	if one.Load() != 2.5 {
		t.Errorf("after Set(2.5) = %v", one.Load())
	}
}
