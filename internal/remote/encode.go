package remote

import (
	"encoding/json"

	"ipex/internal/experiments"
	"ipex/internal/nvp"
	"ipex/internal/power"
)

// EncodeCell derives the /v1/run body for one sweep cell: the JSON of its
// experiments.CellIdentity, built by experiments.NewCellIdentity exactly as
// the sweep keyed the cell. tr must be the cell's power trace, wantKey the
// key runAll computed for the cell, and cfg the effective config — budget
// clamp and paranoid flag applied; its fields tagged json:"-" (observers,
// the fast-path switch) never reach the body. The identity built
// here must hash to wantKey; a mismatch returns nil (the cell runs locally)
// rather than ship a request filed under another key.
func EncodeCell(app string, scale float64, tr *power.Trace, traceSeed uint64, cfg nvp.Config, wantKey string) []byte {
	id := experiments.NewCellIdentity(app, scale, tr, traceSeed, cfg)
	if id.Key() != wantKey {
		return nil
	}
	body, err := json.Marshal(id)
	if err != nil {
		return nil
	}
	return body
}
