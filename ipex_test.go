package ipex

import (
	"math"
	"strings"
	"testing"
)

func TestQuickstartFlow(t *testing.T) {
	trace := GenerateTrace(RFHome, 20000, 1)
	base, err := Run("fft", 0.05, trace, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	with, err := Run("fft", 0.05, trace, DefaultConfig().WithIPEX())
	if err != nil {
		t.Fatal(err)
	}
	if !base.Completed || !with.Completed {
		t.Fatal("runs did not complete")
	}
	s := Speedup(base, with)
	if s < 0.5 || s > 2 {
		t.Errorf("implausible IPEX speedup %v", s)
	}
}

func TestWorkloadsList(t *testing.T) {
	if len(Workloads()) != 20 {
		t.Errorf("Workloads() = %d names", len(Workloads()))
	}
	if _, err := NewWorkload("nosuch", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestRunWorkloadCustomGenerator(t *testing.T) {
	wl, err := NewWorkload("qsort", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunWorkload(wl, GenerateTrace(Solar, 20000, 2), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.App != "qsort" {
		t.Errorf("App = %q", r.App)
	}
}

func TestLoadTrace(t *testing.T) {
	tr, err := LoadTrace("log", strings.NewReader("0.001\n0.002\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Samples) != 2 {
		t.Errorf("samples = %d", len(tr.Samples))
	}
}

func TestOverheadExported(t *testing.T) {
	r := Overhead(2)
	if r.TotalBits != 198 {
		t.Errorf("TotalBits = %d", r.TotalBits)
	}
}

func TestNVMForExported(t *testing.T) {
	p := NVMFor(PCM, 16<<20)
	if p.Tech != PCM {
		t.Errorf("tech = %v", p.Tech)
	}
}

func TestSpeedupZeroGuard(t *testing.T) {
	if Speedup(Result{Cycles: 10}, Result{}) != 0 {
		t.Error("zero-cycle divisor not guarded")
	}
}

// TestArenaRunZeroAlloc pins the public arena path end to end: after the
// first run has memoized the workload stream and populated the arena, a
// default-configuration Arena.Run — stream lookup included — allocates
// nothing.
func TestArenaRunZeroAlloc(t *testing.T) {
	trace := GenerateTrace(RFHome, 0, 1)
	cfg := DefaultConfig()
	ar := NewArena()
	if _, err := ar.Run("gsme", 0.1, trace, cfg); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(5, func() {
		if _, err := ar.Run("gsme", 0.1, trace, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("steady-state Arena.Run allocated %v times, want 0", n)
	}
}

// TestRunRejectsBadInputs pins the API-boundary contract: invalid workloads
// and configurations come back as descriptive errors, never panics.
func TestRunRejectsBadInputs(t *testing.T) {
	trace := GenerateTrace(RFHome, 20000, 1)
	cases := []struct {
		name string
		app  string
		sc   float64
		mut  func(*Config)
		want string // substring of the error
	}{
		{"unknown app", "nosuch", 1, nil, "nosuch"},
		{"NaN scale", "fft", math.NaN(), nil, "scale"},
		{"Inf scale", "fft", math.Inf(1), nil, "scale"},
		{"NaN capacitance", "fft", 0.05,
			func(c *Config) { c.Capacitor.CapacitanceFarads = math.NaN() }, "capacitance"},
		{"negative capacitance", "fft", 0.05,
			func(c *Config) { c.Capacitor.CapacitanceFarads = -1 }, "capacitance"},
		{"NaN threshold voltage", "fft", 0.05,
			func(c *Config) { c.Capacitor.Von = math.NaN() }, "finite"},
		{"zero NVM", "fft", 0.05,
			func(c *Config) { c.NVM.SizeBytes = 0 }, "NVM size"},
		{"degree too small", "fft", 0.05,
			func(c *Config) { c.InitialDegree = 0 }, "degree"},
		{"degree too large", "fft", 0.05,
			func(c *Config) { c.InitialDegree = MaxPrefetchDegree + 1 }, "degree"},
		{"NaN IPEX step", "fft", 0.05,
			func(c *Config) { *c = c.WithIPEX(); c.IPEX.StepV = math.NaN() }, "step"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			_, err := Run(tc.app, tc.sc, trace, cfg)
			if err == nil {
				t.Fatal("invalid input accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestEventTracerAndMetricsExported exercises the public tracing surface
// end to end: events stream as JSONL and the registry matches the Result.
func TestEventTracerAndMetricsExported(t *testing.T) {
	var sb strings.Builder
	cfg := DefaultConfig()
	cfg.Tracer = NewEventTracer(&sb)
	cfg.Metrics = NewMetricsRegistry()
	r, err := Run("fft", 0.05, GenerateTrace(RFHome, 20000, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("trace stream has %d lines", len(lines))
	}
	if uint64(len(lines)) != cfg.Tracer.Events() {
		t.Errorf("Events() = %d, stream has %d lines", cfg.Tracer.Events(), len(lines))
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "{") || !strings.HasSuffix(l, "}") {
			t.Fatalf("line is not a JSON object: %q", l)
		}
	}
	if got := cfg.Metrics.Counter("run.insts").Load(); got != r.Insts {
		t.Errorf("run.insts metric = %d, Result.Insts = %d", got, r.Insts)
	}
}

func TestExperimentReexports(t *testing.T) {
	o := ExperimentOptions{Scale: 0.02, Apps: []string{"fft"}}
	r, err := Fig04(o)
	if err != nil || len(r.Points) == 0 {
		t.Fatalf("Fig04: %v", err)
	}
	f2, err := Fig02(o)
	if err != nil || len(f2.Rows) != 1 {
		t.Fatalf("Fig02: %v", err)
	}
}
