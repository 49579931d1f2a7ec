package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ipex/internal/promtext"
	"ipex/internal/trace"
)

// fixtureScrape builds a realistic /metrics body from the real registry
// renderer, so the test pins ipextop against what the endpoints emit.
func fixtureScrape(t *testing.T) string {
	t.Helper()
	reg := trace.NewRegistry()
	reg.Counter("ipexd.cache_hits").Add(6)
	reg.Gauge("ipexd.queue_depth").Set(3)
	h := reg.Histogram("ipexd.run_seconds", []float64{0.01, 0.1, 1})
	for i := 0; i < 8; i++ {
		h.Observe(0.05)
	}
	h.Observe(0.5)
	h.Observe(0.5)
	var b strings.Builder
	if err := reg.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestRenderHistogramQuantiles(t *testing.T) {
	exp, err := promtext.Parse(fixtureScrape(t))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	render(&b, "http://x", exp)
	out := b.String()

	// 8 of 10 observations land in the 0.1 bucket → p50 interpolates inside
	// (0.01, 0.1]; p95 and p99 inside (0.1, 1]. The mean is exactly 0.14s.
	for _, want := range []string{
		"ipexd_run_seconds", // span row, prefix-stripped
		"10",                // count
		"140.00ms",          // mean 1.4/10
		"ipex_ipexd_cache_hits  6",
		"ipex_ipexd_queue_depth  3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("frame missing %q:\n%s", want, out)
		}
	}
	bs := promtext.Buckets(exp.Family("ipex_ipexd_run_seconds"))
	if p50 := promtext.Quantile(0.5, bs); p50 < 0.01 || p50 > 0.1 {
		t.Errorf("p50 = %g, want inside (0.01, 0.1]", p50)
	}
	if p99 := promtext.Quantile(0.99, bs); p99 <= 0.1 || p99 > 1 {
		t.Errorf("p99 = %g, want inside (0.1, 1]", p99)
	}
}

// TestPollEndToEnd scrapes a real HTTP server serving /metrics from the
// registry renderer.
func TestPollEndToEnd(t *testing.T) {
	scrape := fixtureScrape(t)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write([]byte(scrape))
	}))
	defer srv.Close()

	exp, err := poll(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if f := exp.Family("ipex_ipexd_run_seconds"); f == nil || f.Type != "histogram" {
		t.Fatalf("scrape did not parse the histogram family: %+v", f)
	}
}
