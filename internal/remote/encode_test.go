package remote

import (
	"bytes"
	"testing"

	"ipex/internal/energy"
	"ipex/internal/experiments"
	"ipex/internal/fault"
	"ipex/internal/nvp"
	"ipex/internal/power"
	"ipex/internal/prefetch"
)

// keyFor computes the cell key runAll would assign the cell — the ground
// truth EncodeCell must round-trip to.
func keyFor(t *testing.T, app string, scale float64, tr *power.Trace, seed uint64, cfg nvp.Config) string {
	t.Helper()
	id, err := experiments.NewConfigIdentity(cfg)
	if err != nil {
		t.Fatalf("NewConfigIdentity: %v", err)
	}
	return experiments.CellIdentity{
		App:       app,
		Scale:     scale,
		TraceSeed: seed,
		TraceName: tr.Name,
		TraceLen:  len(tr.Samples),
		Config:    id,
	}.Key()
}

func defaultTrace() *power.Trace {
	return power.Generate(power.RFHome, power.DefaultTraceSamples, 1)
}

// TestEncodeCellRemotableBattery walks the configurations a sweep actually
// produces and asserts each encodes to a request the server's own decoder
// files under the exact cell key.
func TestEncodeCellRemotableBattery(t *testing.T) {
	tr := defaultTrace()
	solar := power.Generate(power.Solar, power.DefaultTraceSamples, 9)

	sttram := nvp.DefaultConfig()
	sttram.NVM = energy.NVMFor(energy.STTRAM, 32<<20)

	pcm := nvp.DefaultConfig()
	pcm.NVM = energy.NVMFor(energy.PCM, 16<<20)

	bigCap := nvp.DefaultConfig()
	bigCap.Capacitor.CapacitanceFarads = 1e-6

	caches := nvp.DefaultConfig()
	caches.ICacheSize = 8 << 10
	caches.DCacheSize = 16 << 10
	caches.Ways = 4
	caches.PrefetchBufEntries = 32

	budget := nvp.DefaultConfig()
	budget.MaxCycles = 5_000_000

	flags := nvp.DefaultConfig()
	flags.Paranoid = true
	flags.RecordCycles = true
	flags.ReissueOnExit = true
	flags.GateAddressGen = true

	nopf := nvp.DefaultConfig()
	nopf.IPrefetcher = prefetch.Kind("none")
	nopf.DPrefetcher = prefetch.Kind("none")
	nopf.PrefetchToCache = false
	nopf.DupSuppress = false

	markov := nvp.DefaultConfig()
	markov.IPrefetcher = prefetch.Kind("markov")
	markov.DPrefetcher = prefetch.Kind("ghb")
	markov.InitialDegree = 4

	ideal := nvp.DefaultConfig()
	ideal.Ideal = true

	withFaults := nvp.DefaultConfig()
	withFaults.Faults = &fault.Config{Sensor: fault.SensorConfig{NoiseV: 0.01}}

	ipexInstOnly := nvp.DefaultConfig().WithIPEX()
	ipexInstOnly.IPEXData = false

	tunedIPEX := nvp.DefaultConfig().WithIPEX()
	tunedIPEX.IPEX.StepV += 0.01

	tunedCap := nvp.DefaultConfig()
	tunedCap.Capacitor.Vbackup += 0.05

	cases := []struct {
		name  string
		app   string
		scale float64
		tr    *power.Trace
		seed  uint64
		cfg   nvp.Config
	}{
		{"default", "fft", 0.1, tr, 1, nvp.DefaultConfig()},
		{"ipex-both", "qsort", 0.1, tr, 1, nvp.DefaultConfig().WithIPEX()},
		{"ipex-data", "gsme", 0.1, tr, 1, nvp.DefaultConfig().WithIPEXData()},
		{"solar-seed9", "fft", 0.5, solar, 9, nvp.DefaultConfig()},
		{"sttram-32mb", "fft", 0.1, tr, 1, sttram},
		{"pcm", "fft", 0.1, tr, 1, pcm},
		{"capacitance", "fft", 0.1, tr, 1, bigCap},
		{"cache-geometry", "fft", 0.1, tr, 1, caches},
		{"cycle-budget", "fft", 0.1, tr, 1, budget},
		{"flag-soup", "fft", 0.1, tr, 1, flags},
		{"no-prefetch", "fft", 0.1, tr, 1, nopf},
		{"markov-ghb-degree4", "fft", 0.1, tr, 1, markov},
		{"ideal", "fft", 0.1, tr, 1, ideal},
		// Knobs the sensitivity figures, ablations and fault sweeps turn.
		{"injected-faults", "fft", 0.1, tr, 1, withFaults},
		{"ipex-inst-only", "fft", 0.1, tr, 1, ipexInstOnly},
		{"tuned-ipex-params", "fft", 0.1, tr, 1, tunedIPEX},
		{"tuned-capacitor-vbackup", "fft", 0.1, tr, 1, tunedCap},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			key := keyFor(t, tc.app, tc.scale, tc.tr, tc.seed, tc.cfg)
			body := EncodeCell(tc.app, tc.scale, tc.tr, tc.seed, tc.cfg, key)
			if body == nil {
				t.Fatal("EncodeCell declined a remotable cell")
			}
			// The encoded body must decode through the server's own path and
			// re-key to the sweep's key.
			sp, err := DecodeRunRequest(bytes.NewReader(body), Limits{})
			if err != nil {
				t.Fatalf("DecodeRunRequest on own encoding: %v", err)
			}
			if got := sp.Cell.Key(); got != key {
				t.Fatalf("server-side key = %s, want %s", got, key)
			}
		})
	}
}

// TestEncodeCellDeclinesInexpressible pins what stays local: a trace the
// server cannot regenerate from a source name and seed, and a prefetcher
// factory (a func does not travel). EncodeCell returns nil for them, so the
// cell runs locally instead of being mis-keyed remotely.
func TestEncodeCellDeclinesInexpressible(t *testing.T) {
	tr := defaultTrace()

	withFactory := nvp.DefaultConfig()
	withFactory.IPrefetcherFactory = func() prefetch.Prefetcher {
		p, _ := prefetch.New(prefetch.Kind("sequential"))
		return p
	}
	withFactory.IPrefetcherID = "custom-seq"

	customTrace := power.Generate(power.RFHome, power.DefaultTraceSamples, 1)
	customTrace.Name = "bench-recording-3"

	shortTrace := power.Generate(power.RFHome, 1000, 1)

	cases := []struct {
		name string
		tr   *power.Trace
		cfg  nvp.Config
	}{
		{"prefetcher-factory", tr, withFactory},
		{"custom-trace-name", customTrace, nvp.DefaultConfig()},
		{"foreign-trace-length", shortTrace, nvp.DefaultConfig()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			key := keyFor(t, "fft", 0.1, tc.tr, 1, tc.cfg)
			if body := EncodeCell("fft", 0.1, tc.tr, 1, tc.cfg, key); body != nil {
				t.Fatalf("EncodeCell encoded an inexpressible cell: %s", body)
			}
		})
	}

	// Degenerate inputs.
	if EncodeCell("fft", 0.1, nil, 1, nvp.DefaultConfig(), "abc") != nil {
		t.Fatal("EncodeCell accepted a nil trace")
	}
	if EncodeCell("fft", 0.1, tr, 1, nvp.DefaultConfig(), "") != nil {
		t.Fatal("EncodeCell accepted an empty key")
	}
	// A wrong wantKey (any mismatch between the sweep's identity and the
	// request) must decline rather than ship a mis-keyed request.
	if EncodeCell("fft", 0.1, tr, 1, nvp.DefaultConfig(), "00000000000000000000000000000000") != nil {
		t.Fatal("EncodeCell accepted a key its identity does not hash to")
	}
}

// TestEncodeCellDeterministic pins that encoding is pure: same inputs, same
// bytes (the request is part of the cell's routing identity — rendezvous
// hashing keys on the cell key, but the body must be stable too for the
// fleet cache to dedupe).
func TestEncodeCellDeterministic(t *testing.T) {
	tr := defaultTrace()
	cfg := nvp.DefaultConfig().WithIPEX()
	key := keyFor(t, "gsme", 0.25, tr, 3, cfg)
	a := EncodeCell("gsme", 0.25, tr, 3, cfg, key)
	b := EncodeCell("gsme", 0.25, tr, 3, cfg, key)
	if a == nil || !bytes.Equal(a, b) {
		t.Fatalf("EncodeCell not deterministic:\n%s\n%s", a, b)
	}
}
