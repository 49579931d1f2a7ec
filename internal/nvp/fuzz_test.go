package nvp

import (
	"math"
	"testing"

	"ipex/internal/energy"
	"ipex/internal/fault"
	"ipex/internal/prefetch"
)

// FuzzConfigValidate drives Config.Validate (including the capacitor, fault
// and NVM sub-configs) with arbitrary field values: it must never panic, must
// be deterministic, and must reject every configuration containing a
// non-finite probability, an unordered voltage monitor, an unbounded
// checkpoint retry or rollback count, or an NVM model with a negative or
// non-finite energy, a zero latency, or an unknown technology.
func FuzzConfigValidate(f *testing.F) {
	d := DefaultConfig()
	f.Add(d.ICacheSize, d.DCacheSize, d.Ways, d.InitialDegree,
		d.Capacitor.Vmax, d.Capacitor.Von, d.Capacitor.Vbackup, d.Capacitor.Voff,
		0.01, 0.2, 8, uint8(0),
		d.NVM.ReadNJ, d.NVM.WriteNJ, d.NVM.LeakMW, d.NVM.ReadCycles, d.NVM.WriteCycles, int(d.NVM.Tech), 0, 0)
	f.Add(0, -1, 99, 0, 3.5, 3.4, 3.18, 2.9, -0.5, 2.0, -3, uint8(1),
		-1.0, 0.5, 1.0, uint64(16), uint64(40), 0, -1, 2)
	f.Add(2048, 2048, 4, 2, 3.4, 3.4, 3.4, 3.4, 0.0, 0.0, 0, uint8(2),
		0.4, 3.2, 12.0, uint64(0), uint64(40), 1, 3, 8)
	// Defaults everywhere except the NVM: NaN/Inf energies, a zero write
	// latency, and technologies just outside the enum.
	f.Add(d.ICacheSize, d.DCacheSize, d.Ways, d.InitialDegree,
		d.Capacitor.Vmax, d.Capacitor.Von, d.Capacitor.Vbackup, d.Capacitor.Voff,
		0.01, 0.2, 8, uint8(0), math.NaN(), 0.5, 1.0, uint64(16), uint64(40), 2, 0, 0)
	f.Add(d.ICacheSize, d.DCacheSize, d.Ways, d.InitialDegree,
		d.Capacitor.Vmax, d.Capacitor.Von, d.Capacitor.Vbackup, d.Capacitor.Voff,
		0.01, 0.2, 8, uint8(0), 0.5, math.Inf(1), math.Inf(-1), uint64(16), uint64(0), 3, 0, 0)
	f.Add(d.ICacheSize, d.DCacheSize, d.Ways, d.InitialDegree,
		d.Capacitor.Vmax, d.Capacitor.Von, d.Capacitor.Vbackup, d.Capacitor.Voff,
		0.01, 0.2, 8, uint8(0), 0.5, 3.0, 12.0, uint64(16), uint64(40), -1, 0, 0)
	// Always-failing checkpoint writes with retry/rollback bounds at, and
	// far past, their ceilings: the walk's work per outage must stay bounded.
	f.Add(d.ICacheSize, d.DCacheSize, d.Ways, d.InitialDegree,
		d.Capacitor.Vmax, d.Capacitor.Von, d.Capacitor.Vbackup, d.Capacitor.Voff,
		0.01, 1.0, 8, uint8(0), d.NVM.ReadNJ, d.NVM.WriteNJ, d.NVM.LeakMW, d.NVM.ReadCycles, d.NVM.WriteCycles, int(d.NVM.Tech),
		fault.MaxCheckpointRetries, fault.MaxCheckpointRollbacks)
	f.Add(d.ICacheSize, d.DCacheSize, d.Ways, d.InitialDegree,
		d.Capacitor.Vmax, d.Capacitor.Von, d.Capacitor.Vbackup, d.Capacitor.Voff,
		0.01, 1.0, 8, uint8(0), d.NVM.ReadNJ, d.NVM.WriteNJ, d.NVM.LeakMW, d.NVM.ReadCycles, d.NVM.WriteCycles, int(d.NVM.Tech),
		1<<62, 1<<40)
	f.Fuzz(func(t *testing.T, icache, dcache, ways, degree int,
		vmax, von, vbackup, voff, noiseV, failProb float64, adcBits int, pf uint8,
		readNJ, writeNJ, leakMW float64, readCycles, writeCycles uint64, tech int,
		maxRetries, maxRollbacks int) {
		cfg := DefaultConfig()
		cfg.ICacheSize = icache
		cfg.DCacheSize = dcache
		cfg.Ways = ways
		cfg.InitialDegree = degree
		cfg.Capacitor.Vmax = vmax
		cfg.Capacitor.Von = von
		cfg.Capacitor.Vbackup = vbackup
		cfg.Capacitor.Voff = voff
		kinds := []prefetch.Kind{prefetch.KindNone, prefetch.KindSequential,
			prefetch.KindStride, prefetch.Kind("warpdrive")}
		cfg.IPrefetcher = kinds[int(pf)%len(kinds)]
		cfg.NVM = energy.NVMParams{
			Tech: energy.NVMTech(tech), SizeBytes: d.NVM.SizeBytes,
			ReadNJ: readNJ, WriteNJ: writeNJ, LeakMW: leakMW,
			ReadCycles: readCycles, WriteCycles: writeCycles,
		}
		cfg.Faults = &fault.Config{
			Sensor: fault.SensorConfig{NoiseV: noiseV, ADCBits: adcBits},
			Checkpoint: fault.CheckpointConfig{
				WriteFailProb: failProb, MaxRetries: maxRetries, MaxRollbacks: maxRollbacks},
		}

		err1 := cfg.Validate()
		err2 := cfg.Validate()
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("Validate is nondeterministic: %v vs %v", err1, err2)
		}
		if err1 != nil {
			return
		}
		// A configuration Validate blesses must satisfy the documented
		// envelope it claims to enforce.
		if failProb < 0 || failProb > 1 {
			t.Fatalf("accepted out-of-range WriteFailProb %g", failProb)
		}
		if maxRetries < 0 || maxRetries > fault.MaxCheckpointRetries ||
			maxRollbacks < 0 || maxRollbacks > fault.MaxCheckpointRollbacks {
			t.Fatalf("accepted checkpoint retry/rollback bounds %d/%d", maxRetries, maxRollbacks)
		}
		if !(vmax > von && von > vbackup && vbackup > voff && voff > 0) {
			t.Fatalf("accepted unordered voltage monitor %g/%g/%g/%g",
				vmax, von, vbackup, voff)
		}
		for _, v := range []float64{readNJ, writeNJ, leakMW} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("accepted NVM energy %g (read %g, write %g, leak %g)", v, readNJ, writeNJ, leakMW)
			}
		}
		if readCycles == 0 || writeCycles == 0 {
			t.Fatalf("accepted a zero NVM latency %d/%d", readCycles, writeCycles)
		}
		if tech < int(energy.ReRAM) || tech > int(energy.PCM) {
			t.Fatalf("accepted unknown NVM technology %d", tech)
		}
		if !prefetch.Known(cfg.IPrefetcher) {
			t.Fatalf("accepted unknown instruction prefetcher %q", cfg.IPrefetcher)
		}
	})
}
