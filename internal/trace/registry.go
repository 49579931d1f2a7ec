package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/big"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"ipex/internal/stats"
)

// Registry is a named-instrument metrics registry holding three kinds:
// Counter, Gauge, and Histogram. Components obtain handles once and bump
// them on their fast paths; a counter bump is a single atomic add, and a
// component that was never given a registry pays nothing (handles are only
// installed when metrics are requested).
//
// A name identifies exactly one instrument of one kind. Re-registering a
// name with the same kind returns the existing handle; re-registering it as
// a different kind is an error (see CounterErr and friends) — the
// convenience accessors then return a nil, discarding handle rather than
// silently aliasing two meanings onto one exported series.
//
// Counter values accumulate across runs sharing the registry, which is what
// an experiment sweep wants: the dump decomposes the whole sweep.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// kindOf names the kind already registered under name, or "" when the name
// is free. Caller holds r.mu.
func (r *Registry) kindOf(name string) string {
	if _, ok := r.counters[name]; ok {
		return "counter"
	}
	if _, ok := r.gauges[name]; ok {
		return "gauge"
	}
	if _, ok := r.histograms[name]; ok {
		return "histogram"
	}
	return ""
}

// Counter is a monotonically increasing uint64, safe for concurrent use.
// All methods are nil-receiver safe (a nil handle discards updates).
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Load returns the current value.
func (c *Counter) Load() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 accumulator (energy totals), safe for concurrent use.
// All methods are nil-receiver safe.
//
// The sum is exact: every finite float64 and any sum of them fits in
// exactPrec bits, so the value Load rounds once is the same whatever order
// concurrent runs add in, and one Add loads back bit for bit. A plain float
// sum would round at every step and differ in the last digits from one
// parallel sweep to the next.
type Gauge struct {
	mu  sync.Mutex
	sum big.Float
	// odd accumulates non-finite inputs, which big.Float cannot hold; it
	// makes Load return ±Inf or NaN exactly as a float sum would.
	odd float64
}

// exactPrec covers every float64 from 2^-1074 to 2^1024 plus 64 carry bits.
const exactPrec = 1074 + 1024 + 64

// Add accumulates f.
func (g *Gauge) Add(f float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if math.IsInf(f, 0) || math.IsNaN(f) {
		g.odd += f
		return
	}
	var x big.Float
	g.sum.SetPrec(exactPrec).Add(&g.sum, x.SetFloat64(f))
}

// Set replaces the value (for level-style gauges — in-flight requests,
// queue depth — where the current level, not an accumulated sum, is the
// measurement). Nil-receiver safe.
func (g *Gauge) Set(f float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.odd = 0
	if math.IsInf(f, 0) || math.IsNaN(f) {
		g.odd, f = f, 0
	}
	g.sum.SetFloat64(f)
}

// Load returns the accumulated value, rounded once to the nearest float64.
func (g *Gauge) Load() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	v, _ := g.sum.Float64()
	return v + g.odd
}

// CounterErr returns the named counter, creating it on first use. A name
// already registered as another kind is an error — never an aliased handle,
// never a panic. A nil registry returns a nil (discarding) handle.
func (r *Registry) CounterErr(name string) (*Counter, error) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c, nil
	}
	if k := r.kindOf(name); k != "" {
		return nil, fmt.Errorf("trace: metric %q is already registered as a %s, not a counter", name, k)
	}
	c := &Counter{}
	r.counters[name] = c
	return c, nil
}

// Counter is the convenience form of CounterErr: a kind mismatch returns
// the nil (discarding) handle, so instrumented fast paths need no error
// plumbing while the name can never alias an instrument of another kind.
func (r *Registry) Counter(name string) *Counter {
	c, _ := r.CounterErr(name)
	return c
}

// GaugeErr returns the named gauge, creating it on first use; a name held
// by another kind is an error. A nil registry returns a nil handle.
func (r *Registry) GaugeErr(name string) (*Gauge, error) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g, nil
	}
	if k := r.kindOf(name); k != "" {
		return nil, fmt.Errorf("trace: metric %q is already registered as a %s, not a gauge", name, k)
	}
	g := &Gauge{}
	r.gauges[name] = g
	return g, nil
}

// Gauge is the convenience form of GaugeErr (nil handle on kind mismatch).
func (r *Registry) Gauge(name string) *Gauge {
	g, _ := r.GaugeErr(name)
	return g
}

// HistogramErr returns the named histogram, creating it over bounds on
// first use (nil bounds = DefaultLatencyBounds; the first registration
// freezes the layout, later calls return the existing instrument
// regardless of their bounds argument). A name held by another kind is an
// error. A nil registry returns a nil handle.
func (r *Registry) HistogramErr(name string, bounds []float64) (*Histogram, error) {
	if r == nil {
		return nil, nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h, nil
	}
	if k := r.kindOf(name); k != "" {
		return nil, fmt.Errorf("trace: metric %q is already registered as a %s, not a histogram", name, k)
	}
	h := newHistogram(bounds)
	r.histograms[name] = h
	return h, nil
}

// Histogram is the convenience form of HistogramErr (nil handle on kind
// mismatch).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	h, _ := r.HistogramErr(name, bounds)
	return h
}

// Snapshot returns every metric as a flat name→value map (counters as
// uint64, gauges as float64, histograms as a {count,sum,min,max,mean}
// summary map). The map is a copy; mutating it does not affect the
// registry.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	if r == nil {
		return out
	}
	r.mu.Lock()
	hs := make(map[string]*Histogram, len(r.histograms))
	for name, h := range r.histograms {
		hs[name] = h
	}
	for name, c := range r.counters {
		out[name] = c.Load()
	}
	for name, g := range r.gauges {
		out[name] = g.Load()
	}
	r.mu.Unlock()
	// Histogram snapshots take the instrument's own lock; never while
	// holding the registry lock (an observer holding neither could then
	// interleave into an ordering deadlock with a concurrent registration).
	for name, h := range hs {
		s := h.Snapshot()
		out[name] = map[string]any{
			"count": s.N, "sum": s.Sum, "min": s.MinV, "max": s.MaxV, "mean": s.Mean(),
		}
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON with deterministically
// sorted keys (encoding/json sorts map keys).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// sortedCounters / sortedGauges return name-sorted snapshots so every dump
// format iterates the registry in one deterministic order.
func (r *Registry) sortedCounters() ([]string, map[string]uint64) {
	vals := make(map[string]uint64)
	if r == nil {
		return nil, vals
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for name, c := range r.counters {
		names = append(names, name)
		vals[name] = c.Load()
	}
	sort.Strings(names)
	return names, vals
}

func (r *Registry) sortedGauges() ([]string, map[string]float64) {
	vals := make(map[string]float64)
	if r == nil {
		return nil, vals
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.gauges))
	for name, g := range r.gauges {
		names = append(names, name)
		vals[name] = g.Load()
	}
	sort.Strings(names)
	return names, vals
}

func (r *Registry) sortedHistograms() ([]string, map[string]stats.Histogram) {
	vals := make(map[string]stats.Histogram)
	if r == nil {
		return nil, vals
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.histograms))
	hs := make([]*Histogram, 0, len(r.histograms))
	for name, h := range r.histograms {
		names = append(names, name)
		hs = append(hs, h)
	}
	r.mu.Unlock()
	for i, name := range names {
		vals[name] = hs[i].Snapshot()
	}
	sort.Strings(names)
	return names, vals
}

// PromName converts a registry metric name into a legal Prometheus metric
// name: every character outside [a-zA-Z0-9_] becomes '_' and the "ipex_"
// namespace prefix is prepended (so "icache.pf_wiped" → "ipex_icache_pf_wiped").
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 5)
	b.WriteString("ipex_")
	// The fixed prefix means a leading digit in name is never a leading
	// digit in the metric name, so digits are legal everywhere here.
	for i := 0; i < len(name); i++ {
		switch c := name[i]; {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '_':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WriteProm writes the snapshot in the Prometheus text exposition format
// (version 0.0.4): one HELP/TYPE pair per metric, counters typed counter,
// gauges typed gauge, and histograms typed histogram with the standard
// cumulative `_bucket{le=...}` / `_sum` / `_count` series, names sorted so
// the output is byte-deterministic for a given registry state. It serves
// both scrapers (cmd/experiments -listen, ipexd) and flat-file dumps
// (ipexsim -metrics-format prom).
func (r *Registry) WriteProm(w io.Writer) error {
	cn, cv := r.sortedCounters()
	for _, name := range cn {
		pn := PromName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s simulator counter %q\n# TYPE %s counter\n%s %d\n",
			pn, name, pn, pn, cv[name]); err != nil {
			return err
		}
	}
	gn, gv := r.sortedGauges()
	for _, name := range gn {
		pn := PromName(name)
		if _, err := fmt.Fprintf(w, "# HELP %s simulator gauge %q\n# TYPE %s gauge\n%s %g\n",
			pn, name, pn, pn, gv[name]); err != nil {
			return err
		}
	}
	hn, hv := r.sortedHistograms()
	for _, name := range hn {
		if err := writePromHistogram(w, name, hv[name]); err != nil {
			return err
		}
	}
	return nil
}

// writePromHistogram renders one histogram in the Prometheus convention:
// cumulative buckets keyed by inclusive upper bound. The stats.Histogram's
// half-open buckets [lo, hi) map onto `le` bounds directly — a value
// exactly on a boundary lands one bucket higher than a strict `le` would
// put it, an off-by-one of zero consequence for latency observation and
// irrelevant to _sum/_count, which are exact.
func writePromHistogram(w io.Writer, name string, h stats.Histogram) error {
	pn := PromName(name)
	if _, err := fmt.Fprintf(w, "# HELP %s simulator histogram %q\n# TYPE %s histogram\n", pn, name, pn); err != nil {
		return err
	}
	var cum uint64
	for i, b := range h.Bounds {
		cum += h.Counts[i] // Counts[0] is underflow; Counts[i] covers [Bounds[i-1], Bounds[i])
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", pn, strconv.FormatFloat(b, 'g', -1, 64), cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
		pn, h.N, pn, strconv.FormatFloat(h.Sum, 'g', -1, 64), pn, h.N)
	return err
}
