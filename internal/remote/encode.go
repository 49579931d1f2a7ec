package remote

import (
	"encoding/json"

	"ipex/internal/experiments"
	"ipex/internal/nvp"
	"ipex/internal/power"
)

// EncodeCell derives the /v1/run body for one sweep cell — the JSON of its
// experiments.CellIdentity — or nil when a server cannot run the cell:
//   - the key is empty (the cell is unkeyable and always simulates);
//   - the trace is custom or of a foreign length (a server generates its
//     traces from a source name and seed at the default length);
//   - a prefetcher factory is installed (a func does not travel).
//
// tr must be the cell's power trace, wantKey the key runAll computed for
// the cell. cfg must be the effective config — budget clamp and paranoid
// flag applied, observers excluded — exactly what the cell identity was
// hashed from. The identity built here must hash to wantKey; a mismatch
// declines the cell rather than ship a request filed under another key.
func EncodeCell(app string, scale float64, tr *power.Trace, traceSeed uint64, cfg nvp.Config, wantKey string) []byte {
	if wantKey == "" || tr == nil || len(tr.Samples) != power.DefaultTraceSamples {
		return nil
	}
	if _, err := power.ParseSource(tr.Name); err != nil {
		return nil
	}
	if cfg.IPrefetcherFactory != nil || cfg.DPrefetcherFactory != nil {
		return nil
	}
	ci, err := experiments.NewConfigIdentity(cfg)
	if err != nil {
		return nil
	}
	id := experiments.CellIdentity{
		App:       app,
		Scale:     scale,
		TraceSeed: traceSeed,
		TraceName: tr.Name,
		TraceLen:  len(tr.Samples),
		Config:    ci,
	}
	if id.Key() != wantKey {
		return nil
	}
	body, err := json.Marshal(id)
	if err != nil {
		return nil
	}
	return body
}
