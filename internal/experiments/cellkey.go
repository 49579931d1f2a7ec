package experiments

import (
	"ipex/internal/harness"
	"ipex/internal/nvp"
	"ipex/internal/power"
)

// CellIdentity is the complete content identity of one simulation: what is
// simulated (app at a scale), under which power trace, with which effective
// configuration. Two cells with equal identities produce bit-identical
// results, so a journaled or cached result can stand in for a simulation.
// It is the shared key schema of the sweep journal (cmd/experiments) and
// the result cache (cmd/ipexd), and its JSON is the POST /v1/run body
// (internal/remote): one spelling of a cell on disk, in the cache, and on
// the wire.
//
// Config is the effective nvp.Config itself: its JSON leaves out the fields
// tagged json:"-" (prefetcher factories, observers, the fast-path switch),
// which do not determine a result. A decoded identity therefore carries
// none of them, and an observed re-run replays the unobserved result.
type CellIdentity struct {
	App       string
	Scale     float64
	TraceSeed uint64
	TraceName string
	TraceLen  int
	Config    nvp.Config
}

// NewCellIdentity returns the identity of app at scale on the power trace
// tr (generated from seed), under cfg. cfg must be the effective config —
// budget clamp and paranoid flag applied. The sweep's cell keys and the
// /v1/run bodies it sends are both built here, so the two can never
// disagree on what a cell is.
//
// A prefetcher factory is a func and has no stable identity, so neither has
// a config carrying one: NewCellIdentity panics on it, as harness.Key panics
// on unhashable key material. Keying such a config by mere presence would
// let two different factories replay each other's results. No sweep
// installs a factory; a caller that does runs it through nvp.Run directly.
func NewCellIdentity(app string, scale float64, tr *power.Trace, seed uint64, cfg nvp.Config) CellIdentity {
	if cfg.IPrefetcherFactory != nil || cfg.DPrefetcherFactory != nil {
		panic("experiments: a config carrying a prefetcher factory has no content identity")
	}
	return CellIdentity{
		App:       app,
		Scale:     scale,
		TraceSeed: seed,
		TraceName: tr.Name,
		TraceLen:  len(tr.Samples),
		Config:    cfg,
	}
}

// Key hashes the identity into the 32-hex-digit content key used by the
// journal and the result store.
func (id CellIdentity) Key() string { return harness.Key(id) }

// cellKey hashes the content identity of one job under the normalized
// options; cfg is the job's effective config.
func cellKey(o Options, j job, cfg nvp.Config) string {
	return NewCellIdentity(j.app, o.Scale, j.tr, o.TraceSeed, cfg).Key()
}

// SweepIdentity describes a whole sweep invocation for the journal header:
// the experiment set and every option that changes any cell's identity.
// cmd/experiments hashes it with harness.Key; a -resume against a journal
// whose sweep hash differs is rejected before any cell runs.
type SweepIdentity struct {
	Experiments []string
	Scale       float64
	Apps        []string
	TraceSeed   uint64
	Paranoid    bool
	// CellBudget is the per-cell deterministic cycle deadline (0 = none);
	// it clamps MaxCycles and therefore changes truncation behaviour.
	CellBudget uint64
}
