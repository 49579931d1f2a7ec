package experiments

import (
	"ipex/internal/capacitor"
	"ipex/internal/core"
	"ipex/internal/energy"
	"ipex/internal/fault"
	"ipex/internal/harness"
	"ipex/internal/nvp"
	"ipex/internal/power"
	"ipex/internal/prefetch"
)

// ConfigIdentity is the content identity of an nvp.Config: every field that
// can change a simulation result, and nothing else. It exists because
// nvp.Config itself cannot be hashed — the prefetcher factory fields are
// funcs — and because observer attachments (Tracer, Metrics) must not
// change a cell's identity: a re-run with tracing on replays the same
// journaled result, and a cached result serves a request whether or not it
// was produced under observation.
type ConfigIdentity struct {
	ICacheSize         int
	DCacheSize         int
	Ways               int
	PrefetchBufEntries int
	PrefetchToCache    bool
	IPrefetcher        prefetch.Kind
	DPrefetcher        prefetch.Kind
	InitialDegree      int
	IPEXInst           bool
	IPEXData           bool
	IPEX               core.Config
	NVM                energy.NVMParams
	Capacitor          capacitor.Config
	Ideal              bool
	DupSuppress        bool
	ReissueOnExit      bool
	GateAddressGen     bool
	RecordCycles       bool
	MaxCycles          uint64
	Faults             *fault.Config
	Paranoid           bool
	Profile            bool
}

// NewConfigIdentity derives the content identity of cfg. A prefetcher
// factory is a func and has no stable identity, so neither has a config
// carrying one: NewConfigIdentity panics on it, as harness.Key panics on
// unhashable key material. Keying such a config by mere presence would let
// two different factories replay each other's results. No sweep installs
// a factory; a caller that does runs it through nvp.Run directly.
func NewConfigIdentity(cfg nvp.Config) ConfigIdentity {
	if cfg.IPrefetcherFactory != nil || cfg.DPrefetcherFactory != nil {
		panic("experiments: a config carrying a prefetcher factory has no content identity")
	}
	return ConfigIdentity{
		ICacheSize:         cfg.ICacheSize,
		DCacheSize:         cfg.DCacheSize,
		Ways:               cfg.Ways,
		PrefetchBufEntries: cfg.PrefetchBufEntries,
		PrefetchToCache:    cfg.PrefetchToCache,
		IPrefetcher:        cfg.IPrefetcher,
		DPrefetcher:        cfg.DPrefetcher,
		InitialDegree:      cfg.InitialDegree,
		IPEXInst:           cfg.IPEXInst,
		IPEXData:           cfg.IPEXData,
		IPEX:               cfg.IPEX,
		NVM:                cfg.NVM,
		Capacitor:          cfg.Capacitor,
		Ideal:              cfg.Ideal,
		DupSuppress:        cfg.DupSuppress,
		ReissueOnExit:      cfg.ReissueOnExit,
		GateAddressGen:     cfg.GateAddressGen,
		RecordCycles:       cfg.RecordCycles,
		MaxCycles:          cfg.MaxCycles,
		Faults:             cfg.Faults,
		Paranoid:           cfg.Paranoid,
		Profile:            cfg.Profile,
	}
}

// NVPConfig is the inverse of NewConfigIdentity: the observer-free config
// the identity describes, whose own identity is id again. The /v1/run
// decoder in internal/remote relies on it to rebuild a sweep's cell from
// its identity (TestConfigIdentityRoundTrip pins the inverse).
func (id ConfigIdentity) NVPConfig() nvp.Config {
	return nvp.Config{
		ICacheSize:         id.ICacheSize,
		DCacheSize:         id.DCacheSize,
		Ways:               id.Ways,
		PrefetchBufEntries: id.PrefetchBufEntries,
		PrefetchToCache:    id.PrefetchToCache,
		IPrefetcher:        id.IPrefetcher,
		DPrefetcher:        id.DPrefetcher,
		InitialDegree:      id.InitialDegree,
		IPEXInst:           id.IPEXInst,
		IPEXData:           id.IPEXData,
		IPEX:               id.IPEX,
		NVM:                id.NVM,
		Capacitor:          id.Capacitor,
		Ideal:              id.Ideal,
		DupSuppress:        id.DupSuppress,
		ReissueOnExit:      id.ReissueOnExit,
		GateAddressGen:     id.GateAddressGen,
		RecordCycles:       id.RecordCycles,
		MaxCycles:          id.MaxCycles,
		Faults:             id.Faults,
		Paranoid:           id.Paranoid,
		Profile:            id.Profile,
	}
}

// CellIdentity is the complete content identity of one simulation: what is
// simulated (app at a scale), under which power trace, with which effective
// configuration. Two cells with equal identities produce bit-identical
// results, so a journaled or cached result can stand in for a simulation.
// It is the shared key schema of the sweep journal (cmd/experiments) and
// the result cache (cmd/ipexd), and its JSON is the POST /v1/run body
// (internal/remote): one spelling of a cell on disk, in the cache, and on
// the wire.
type CellIdentity struct {
	App       string
	Scale     float64
	TraceSeed uint64
	TraceName string
	TraceLen  int
	Config    ConfigIdentity
}

// NewCellIdentity returns the identity of app at scale on the power trace
// tr (generated from seed), under cfg. cfg must be the effective config —
// budget clamp and paranoid flag applied, observers excluded. The sweep's
// cell keys and the /v1/run bodies it sends are both built here, so the two
// can never disagree on what a cell is.
func NewCellIdentity(app string, scale float64, tr *power.Trace, seed uint64, cfg nvp.Config) CellIdentity {
	return CellIdentity{
		App:       app,
		Scale:     scale,
		TraceSeed: seed,
		TraceName: tr.Name,
		TraceLen:  len(tr.Samples),
		Config:    NewConfigIdentity(cfg),
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
