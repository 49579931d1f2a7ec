package main

import (
	"bytes"
	"sync"
	"testing"

	"ipex/internal/experiments"
	"ipex/internal/nvp"
	"ipex/internal/power"
	"ipex/internal/remote"
)

// TestEveryBuiltinCellRemotable pins the wire format's reach: every keyed
// cell of every registered experiment encodes to a /v1/run body, and the
// server's own decoder files that body under the sweep's cell key. A cell
// that failed either half would run locally under -servers — correct, but a
// silent hole in the fleet's coverage.
func TestEveryBuiltinCellRemotable(t *testing.T) {
	var (
		mu      sync.Mutex
		encoded int
	)
	enc := func(app string, scale float64, tr *power.Trace, seed uint64, cfg nvp.Config, key string) []byte {
		body := remote.EncodeCell(app, scale, tr, seed, cfg, key)
		mu.Lock()
		defer mu.Unlock()
		if body == nil {
			t.Errorf("%s (%s, trace %s): keyed cell %s has no wire encoding", app, cfg.IPrefetcher, tr.Name, key)
			return nil
		}
		sp, err := remote.DecodeRunRequest(bytes.NewReader(body), remote.Limits{})
		if err != nil {
			t.Errorf("%s: server rejects its cell's encoding: %v\n%s", app, err, body)
		} else if got := sp.Cell.Key(); got != key {
			t.Errorf("%s: server files the cell under %s, the sweep under %s\n%s", app, got, key, body)
		}
		encoded++
		return body
	}
	if len(order) != len(registry) {
		t.Fatalf("-all order lists %d experiments, the registry %d", len(order), len(registry))
	}
	for _, id := range order {
		o := experiments.Options{Scale: 0.02, Apps: []string{"fft", "gsme"}, RemoteEncode: enc}
		if _, err := registry[id](o); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if encoded == 0 {
		t.Fatal("no cell reached the encoder; the test proved nothing")
	}
	t.Logf("%d keyed cells across %d experiments encode and re-key server-side", encoded, len(order))
}
