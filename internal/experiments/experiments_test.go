package experiments

import (
	"strings"
	"testing"

	"ipex/internal/nvp"
	"ipex/internal/power"
)

// tiny returns options that keep test sweeps fast but still exercise the
// full pipeline.
func tiny() Options {
	return Options{Scale: 0.03, Apps: []string{"fft", "gsme", "pegwitd"}}
}

func TestFig01(t *testing.T) {
	r, err := Fig01(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != len(Fig01CacheSizes) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// The 2kB row is the normalization point.
	for _, row := range r.Rows {
		if row.CacheSize == 2048 && (row.Speedup < 0.999 || row.Speedup > 1.001) {
			t.Errorf("2kB speedup = %v, want 1.0", row.Speedup)
		}
		if row.LeakPct <= 0 || row.LeakPct >= 1 {
			t.Errorf("leak%% = %v", row.LeakPct)
		}
	}
	// Figure 1's red curve: leakage share grows monotonically with size.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].LeakPct <= r.Rows[i-1].LeakPct {
			t.Errorf("leakage share not increasing at %s", sizeLabel(r.Rows[i].CacheSize))
		}
	}
	if !strings.Contains(r.String(), "Figure 1") {
		t.Error("renderer missing title")
	}
}

func TestFig02(t *testing.T) {
	r, err := Fig02(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.IStall < 0 || row.IStall > 1 || row.DStall < 0 || row.DStall > 1 {
			t.Errorf("%s: stall out of range: %+v", row.App, row)
		}
	}
	// pegwitd is the D-stall-dominated app.
	for _, row := range r.Rows {
		if row.App == "pegwitd" && row.DStall < 0.3 {
			t.Errorf("pegwitd D-stall = %v, expected dominant", row.DStall)
		}
	}
}

func TestFig04(t *testing.T) {
	r, err := Fig04(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) == 0 {
		t.Fatal("no points")
	}
	for _, p := range r.Points {
		if p.MinP < 0 || p.MinP > 1 {
			t.Errorf("P out of range: %+v", p)
		}
	}
	if r.DefaultSystemMinP < 0.30 || r.DefaultSystemMinP > 0.50 {
		t.Errorf("default-system min P = %v", r.DefaultSystemMinP)
	}
}

// TestHeadlineShares derives Figures 10, 12, 14 and 15 and Table 2 from one
// shared headline sweep.
func TestHeadlineShares(t *testing.T) {
	h, err := runHeadline(tiny(), power.RFHome, nvp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fig10, fig12, fig14, fig15, table2 := fig10From(h), fig12From(h), fig14From(h), fig15From(h), table2From(h)
	if len(fig10.Rows) != 3 || len(fig12.Rows) != 3 || len(fig15.Rows) != 3 {
		t.Fatal("row counts wrong")
	}
	// IPEX must reduce prefetch operations on average (Fig. 12's claim).
	if fig12.Mean <= 0 {
		t.Errorf("mean prefetch reduction = %v, want positive", fig12.Mean)
	}
	// Normalized breakdowns: baseline totals are exactly 1.
	for _, row := range fig14.Rows {
		if row.Base.Total() < 0.999 || row.Base.Total() > 1.001 {
			t.Errorf("%s: base normalized total = %v", row.App, row.Base.Total())
		}
	}
	// Table 2 metrics are probabilities.
	for _, v := range []float64{table2.BaseAccI, table2.BaseAccD, table2.IPEXAccI, table2.IPEXAccD,
		table2.BaseCovI, table2.BaseCovD, table2.IPEXCovI, table2.IPEXCovD} {
		if v < 0 || v > 1 {
			t.Errorf("Table 2 metric out of range: %v", v)
		}
	}
	// Renderers produce the paper's labels.
	if !strings.Contains(fig10.String(), "gmean") || !strings.Contains(table2.String(), "NVSRAMCache") {
		t.Error("renderers missing expected content")
	}
}

func TestFig11(t *testing.T) {
	r, err := Fig11(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatal("row count wrong")
	}
}

func TestSweepsRun(t *testing.T) {
	o := Options{Scale: 0.02, Apps: []string{"fft", "gsme"}}
	type fn func(Options) (*SweepResult, error)
	cases := map[string]fn{
		"Table3": Table3, "Table4": Table4,
		"Fig16": Fig16, "Fig17": Fig17, "Fig18": Fig18, "Fig19": Fig19,
		"Fig20": Fig20, "Fig21": Fig21, "Fig22": Fig22,
		"Fig24": Fig24, "Fig25": Fig25,
		"AblationDegreePolicy": AblationDegreePolicy,
		"AblationAdaptive":     AblationAdaptive,
		"AblationDupSuppress":  AblationDupSuppress,
		"AblationPrefetchDest": AblationPrefetchDest,
		"AblationReissue":      AblationReissue,
		"AblationAddressGen":   AblationAddressGen,
	}
	for name, f := range cases {
		r, err := f(o)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(r.Points) == 0 {
			t.Errorf("%s: no points", name)
			continue
		}
		for _, p := range r.Points {
			if p.Speedup <= 0 {
				t.Errorf("%s[%s]: speedup %v", name, p.Label, p.Speedup)
			}
		}
		if !strings.Contains(r.String(), p0Label(r)) {
			t.Errorf("%s: renderer missing first label", name)
		}
	}
}

func p0Label(r *SweepResult) string { return r.Points[0].Label }

func TestFig23AllTraces(t *testing.T) {
	r, err := Fig23(Options{Scale: 0.02, Apps: []string{"fft", "qsort"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 4 {
		t.Fatalf("points = %d, want 4 traces", len(r.Points))
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.norm()
	if o.Scale != 1 || len(o.Apps) != 20 || o.TraceSeed != 1 || o.Parallelism <= 0 {
		t.Errorf("defaults wrong: %+v", o)
	}
}
