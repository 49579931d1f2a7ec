package nvp

import (
	"testing"

	"ipex/internal/power"
	"ipex/internal/workload"
)

// benchStream returns the shared gsme trace arena at full scale, generated
// once per process so no benchmark iteration pays generation cost.
func benchStream(b *testing.B, scale float64) *workload.Stream {
	b.Helper()
	st, err := workload.Shared().Stream("gsme", scale)
	if err != nil {
		b.Fatal(err)
	}
	return st
}

// BenchmarkLoops compares the specialized fast loops against the generic
// interpreter loop on identical configurations (the bit-identity of their
// results is pinned by TestArenaRunStream and TestGoldenFastPaths; this
// benchmark measures what the specialization buys).
func BenchmarkLoops(b *testing.B) {
	tr := power.Generate(power.RFHome, 200000, 1)
	cases := []struct {
		name    string
		mut     func(*Config)
		generic bool
	}{
		{"fast", nil, false},
		{"generic", nil, true},
		{"fast-nopf", func(c *Config) { *c = c.WithoutPrefetch() }, false},
		{"generic-nopf", func(c *Config) { *c = c.WithoutPrefetch() }, true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			cfg := DefaultConfig()
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			cfg.DisableFastPaths = tc.generic
			st := benchStream(b, 1.0)
			// Populate the arena outside the timed region, so the figures
			// (allocs/op included) are steady-state runs only.
			a := NewArena()
			if _, err := a.RunStream(st, tr, cfg); err != nil {
				b.Fatal(err)
			}
			var insts uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := a.RunStream(st, tr, cfg)
				if err != nil {
					b.Fatal(err)
				}
				insts = r.Insts
			}
			b.StopTimer()
			if insts > 0 {
				b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "insts/s")
			}
		})
	}
}
