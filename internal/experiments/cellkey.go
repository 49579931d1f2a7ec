package experiments

import (
	"errors"
	"fmt"

	"ipex/internal/capacitor"
	"ipex/internal/core"
	"ipex/internal/energy"
	"ipex/internal/fault"
	"ipex/internal/harness"
	"ipex/internal/nvp"
	"ipex/internal/prefetch"
)

// ConfigIdentity is the content identity of an nvp.Config: every field that
// can change a simulation result, and nothing else. It exists because
// nvp.Config itself cannot be hashed — the prefetcher factory fields are
// funcs — and because observer attachments (Tracer, Metrics) must not
// change a cell's identity: a re-run with tracing on replays the same
// journaled result, and a cached result serves a request whether or not it
// was produced under observation.
//
// Factory-built prefetchers are identified by their declared name
// (nvp.Config.IPrefetcherID/DPrefetcherID), never by mere presence: two
// different factories under a presence bit would collide to one key and
// replay each other's results. A factory installed without an ID has no
// identity at all — NewConfigIdentity refuses it, and the journal and
// result cache treat such cells as unkeyable (they always simulate).
type ConfigIdentity struct {
	ICacheSize         int
	DCacheSize         int
	Ways               int
	PrefetchBufEntries int
	PrefetchToCache    bool
	IPrefetcher        prefetch.Kind
	DPrefetcher        prefetch.Kind
	// IFactory/DFactory carry the declared factory IDs ("" = no factory).
	IFactory       string
	DFactory       string
	InitialDegree  int
	IPEXInst       bool
	IPEXData       bool
	IPEX           core.Config
	NVM            energy.NVMParams
	Capacitor      capacitor.Config
	Ideal          bool
	DupSuppress    bool
	ReissueOnExit  bool
	GateAddressGen bool
	RecordCycles   bool
	MaxCycles      uint64
	Faults         *fault.Config
	Paranoid       bool
	Profile        bool
}

// ErrUnnamedFactory reports a config whose prefetcher factory carries no
// IPrefetcherID/DPrefetcherID: such a config has no stable content identity
// and must never be journaled or served from a result cache.
var ErrUnnamedFactory = errors.New("prefetcher factory installed without a PrefetcherID; the config has no stable content identity")

// NewConfigIdentity derives the content identity of cfg. It fails with
// ErrUnnamedFactory when a prefetcher factory is installed without its
// identifying nvp.Config.IPrefetcherID/DPrefetcherID.
func NewConfigIdentity(cfg nvp.Config) (ConfigIdentity, error) {
	if cfg.IPrefetcherFactory != nil && cfg.IPrefetcherID == "" {
		return ConfigIdentity{}, fmt.Errorf("experiments: instruction %w", ErrUnnamedFactory)
	}
	if cfg.DPrefetcherFactory != nil && cfg.DPrefetcherID == "" {
		return ConfigIdentity{}, fmt.Errorf("experiments: data %w", ErrUnnamedFactory)
	}
	return ConfigIdentity{
		ICacheSize:         cfg.ICacheSize,
		DCacheSize:         cfg.DCacheSize,
		Ways:               cfg.Ways,
		PrefetchBufEntries: cfg.PrefetchBufEntries,
		PrefetchToCache:    cfg.PrefetchToCache,
		IPrefetcher:        cfg.IPrefetcher,
		DPrefetcher:        cfg.DPrefetcher,
		IFactory:           cfg.IPrefetcherID,
		DFactory:           cfg.DPrefetcherID,
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
	}, nil
}

// ErrFactoryIdentity reports an identity that names a prefetcher factory:
// the ID says which factory ran, but a func cannot be rebuilt from its name,
// so such an identity has no runnable config outside the process that holds
// the factory.
var ErrFactoryIdentity = errors.New("identity names a prefetcher factory; only the process holding the factory can run it")

// NVPConfig is the inverse of NewConfigIdentity: the observer-free config
// the identity describes, whose own identity is id again. It fails with
// ErrFactoryIdentity when the identity names a prefetcher factory. The
// /v1/run decoder in internal/remote relies on it to rebuild a sweep's cell
// from its identity (TestConfigIdentityRoundTrip pins the inverse).
func (id ConfigIdentity) NVPConfig() (nvp.Config, error) {
	if id.IFactory != "" || id.DFactory != "" {
		return nvp.Config{}, fmt.Errorf("experiments: %w (%q/%q)", ErrFactoryIdentity, id.IFactory, id.DFactory)
	}
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
	}, nil
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

// Key hashes the identity into the 32-hex-digit content key used by the
// journal and the result store.
func (id CellIdentity) Key() string { return harness.Key(id) }

// cellKey hashes the content identity of one job under the normalized
// options. cfg must be the effective config (cell budget clamp and paranoid
// flag already applied), minus observer attachments. A config with no
// stable identity (unnamed prefetcher factory) returns "", which the
// harness treats as unkeyable: the cell always simulates and is never
// journaled or replayed.
func cellKey(o Options, j job, cfg nvp.Config) string {
	ci, err := NewConfigIdentity(cfg)
	if err != nil {
		return ""
	}
	name, n := "", 0
	if j.tr != nil {
		name, n = j.tr.Name, len(j.tr.Samples)
	}
	return CellIdentity{
		App:       j.app,
		Scale:     o.Scale,
		TraceSeed: o.TraceSeed,
		TraceName: name,
		TraceLen:  n,
		Config:    ci,
	}.Key()
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
