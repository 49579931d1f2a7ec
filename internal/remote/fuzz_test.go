package remote

// FuzzRunRequest fuzzes DecodeRunRequest — the exact bytes an ipexd accepts
// from the network. The invariants are the endpoint's safety contract: the
// decoder never panics, never accepts more than MaxRequestBody, and
// anything it accepts has a finite scale, honours the server's CellBudget
// clamp, and has a well-formed, stable content identity (the cell key the
// result cache files it under).

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"ipex/internal/experiments"
)

func FuzzRunRequest(f *testing.F) {
	// A remotable cell's own encoding is the most interesting seed shape.
	f.Add([]byte(`{"App":"fft","Scale":0.1,"TraceSeed":1}`))
	f.Add([]byte(`{"app":"gsme","scale":0.5,"TraceName":"solar","TraceSeed":9,"config":{"IPEXInst":true,"IPEXData":true,"InitialDegree":4}}`))
	f.Add([]byte(`{"app":"qsort","config":{"IPrefetcher":"markov","DPrefetcher":"ghb","NVM":{"Tech":1,"SizeBytes":33554432}}}`))
	f.Add([]byte(`{"app":"fft","config":{"PrefetchToCache":false,"DupSuppress":false,"MaxCycles":5000000,"IPEX":{"Thresholds":[3.3,3.2,3.1],"StepV":0.02}}}`))
	f.Add([]byte(`{"app":"fft","config":{"Faults":{"Seed":3,"Sensor":{"NoiseV":0.01,"ADCBits":8},"Checkpoint":{"WriteFailProb":0.1}}}}`))
	// Hostile shapes: unknown fields, wrong types, extremes, junk.
	f.Add([]byte(`{"app":"fft","bogus":1}`))
	f.Add([]byte(`{"app":"fft","scale":1e309}`))
	f.Add([]byte(`{"app":"fft","scale":-1}`))
	f.Add([]byte(`{"app":"fft","config":{"IFactory":"custom/v1","NVM":{"ReadNJ":-1,"ReadCycles":0}}}`))
	f.Add([]byte(`{"app":"fft","scale":0.02,"config":{"Faults":{"Checkpoint":{"WriteFailProb":1,"MaxRetries":4611686018427387904}}}}`))
	f.Add([]byte(`{"app":"fft","TraceLen":7,"config":{"Capacitor":{"CapacitanceFarads":-4.7e-7}}}`))
	f.Add([]byte(`{"app":` + strings.Repeat("[", 64) + `}`))
	f.Add([]byte(`nonsense`))
	f.Add([]byte(``))
	f.Add(bytes.Repeat([]byte(`{"app":"fft"}`), 100_000)) // > MaxRequestBody

	const budget = 1 << 20
	lim := Limits{MaxScale: 10, CellBudget: budget}
	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := DecodeRunRequest(bytes.NewReader(data), lim)
		if err != nil {
			return // rejected bytes are the decoder doing its job
		}
		// Accepted requests must have a sane, finite scale...
		if !(sp.Cell.Scale > 0) || math.IsInf(sp.Cell.Scale, 0) || sp.Cell.Scale > lim.MaxScale {
			t.Fatalf("accepted a degenerate scale %v from %q", sp.Cell.Scale, data)
		}
		// ...a respected cycle budget, in the config that runs and in the
		// identity the result is filed under...
		if sp.Config.MaxCycles == 0 || sp.Config.MaxCycles > budget || sp.Cell.Config.MaxCycles != sp.Config.MaxCycles {
			t.Fatalf("CellBudget clamp not honoured: config %d, identity %d from %q",
				sp.Config.MaxCycles, sp.Cell.Config.MaxCycles, data)
		}
		// ...an identity that is exactly the config's...
		id, err := experiments.NewConfigIdentity(sp.Config)
		if err != nil || !reflect.DeepEqual(id, sp.Cell.Config) {
			t.Fatalf("filed identity differs from the config that runs (%v) from %q", err, data)
		}
		// ...and a deterministic key: decoding the same bytes twice yields
		// the same cell key.
		sp2, err := DecodeRunRequest(bytes.NewReader(data), lim)
		if err != nil {
			t.Fatalf("decode succeeded then failed on identical input: %v", err)
		}
		if k1, k2 := sp.Cell.Key(), sp2.Cell.Key(); k1 != k2 || len(k1) != 32 {
			t.Fatalf("cell key unstable across decodes: %q vs %q", k1, k2)
		}
	})
}
