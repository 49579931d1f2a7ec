// Package remote is the resilient client execution layer for farming sweep
// cells to an ipexd fleet: a sweep (cmd/experiments) hands each remotable
// cell to a Client, which speculates on a remote result and commits it only
// after verification — key match and sha256 over the body, the same
// envelope discipline as the result store's disk tier. Any failure
// (network, backpressure, corruption, truncation) is a retry against the
// fleet, and an exhausted retry budget degrades the cell to local arena
// execution: the sweep's output is byte-identical whether the fleet
// answered every cell, some, or none.
//
// The package also owns the /v1/run wire format, which is the cell identity
// itself: the body is the JSON of experiments.CellIdentity, the same value
// the journal and the result cache hash into a cell key. EncodeCell marshals
// a sweep cell's identity; DecodeRunRequest, the server's decoder, rebuilds
// the runnable config from it (ConfigIdentity.NVPConfig) and re-keys it.
// There is no second spelling of a cell to keep in sync, so every built-in
// cell is remotable; only custom or foreign-length power traces and
// prefetcher factories stay local.
//
// Resilience stack (see DESIGN.md "Remote execution"):
//   - per-server circuit breakers driven by saturating success/failure
//     counters (the prefetchers' confidence-counter idiom, not wall time),
//     with /healthz probes gating the open → half-open transition;
//   - bounded retry budgets with deterministic key-seeded jittered backoff
//     that honor the server's Retry-After on 429/503;
//   - hedged requests racing a second replica for straggler cells (first
//     verified response wins, the loser is cancelled);
//   - response envelope verification (key + sha256 + strict decode);
//   - graceful degradation: per-cell local fallback when the budget is
//     exhausted, fleet-wide when every breaker is open.
package remote

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"

	"ipex/internal/experiments"
	"ipex/internal/nvp"
	"ipex/internal/power"
	"ipex/internal/workload"
)

// MaxRequestBody bounds a /v1/run body; a cell identity is about a
// kilobyte.
const MaxRequestBody = 1 << 20

// Limits are the server-side bounds a request must fit in (backstops
// against one request monopolizing the worker pool).
type Limits struct {
	// MaxScale bounds the cell's Scale (0 = unbounded).
	MaxScale float64
	// CellBudget clamps every run's MaxCycles (0 = off), exactly like
	// cmd/experiments -cell-budget: a deterministic deadline inside
	// simulated time, part of the cell's identity.
	CellBudget uint64
}

// Spec is a validated /v1/run request.
type Spec struct {
	// Cell is the identity the server files the result under: the decoded
	// identity re-keyed after the server's limits applied. Cell.Key() is the
	// cache key and the X-Ipex-Key response header.
	Cell experiments.CellIdentity
	// Source is the power source Cell.TraceName names; the server
	// generates the trace from it and Cell.TraceSeed.
	Source power.Source
	// Config is the runnable, validated, observer-free config of the cell.
	Config nvp.Config
}

// defaultCell is what a /v1/run body decodes over, so an omitted field
// keeps the paper's Table-1 default (nvp.DefaultConfig), scale 1, and the
// default RFHome trace with seed 1.
func defaultCell() experiments.CellIdentity {
	cfg, err := experiments.NewConfigIdentity(nvp.DefaultConfig())
	if err != nil {
		panic(err) // the default config installs no factory
	}
	return experiments.CellIdentity{
		Scale:     1,
		TraceSeed: 1,
		TraceName: power.RFHome.String(),
		TraceLen:  power.DefaultTraceSamples,
		Config:    cfg,
	}
}

// DecodeRunRequest parses and validates a /v1/run body: the JSON of an
// experiments.CellIdentity, at most MaxRequestBody bytes, decoded over
// defaultCell. It is the single decoder for the endpoint — the server calls
// it, and FuzzRunRequest fuzzes it. Every error is a client error (HTTP
// 400).
func DecodeRunRequest(r io.Reader, lim Limits) (Spec, error) {
	dec := json.NewDecoder(io.LimitReader(r, MaxRequestBody))
	// Unknown fields are a client error, not a default: a typo'd knob must
	// not silently hash to (and be served as) a different configuration.
	dec.DisallowUnknownFields()
	id := defaultCell()
	if err := dec.Decode(&id); err != nil {
		return Spec{}, fmt.Errorf("decoding request: %w", err)
	}

	if !slices.Contains(workload.Names(), id.App) {
		return Spec{}, fmt.Errorf("unknown app %q (want one of %s)", id.App, strings.Join(workload.Names(), ", "))
	}
	if !(id.Scale > 0) || math.IsInf(id.Scale, 0) {
		return Spec{}, fmt.Errorf("scale must be a positive finite number, got %g", id.Scale)
	}
	if lim.MaxScale > 0 && id.Scale > lim.MaxScale {
		return Spec{}, fmt.Errorf("scale %g exceeds this server's -max-scale %g", id.Scale, lim.MaxScale)
	}
	src, err := power.ParseSource(id.TraceName)
	if err != nil {
		return Spec{}, err
	}
	// The server generates its traces at the default length; a cell keyed
	// on any other length would be filed under a key its result does not
	// belong to.
	if id.TraceLen != power.DefaultTraceSamples {
		return Spec{}, fmt.Errorf("trace length %d: this server generates %d-sample traces", id.TraceLen, power.DefaultTraceSamples)
	}
	cfg, err := id.Config.NVPConfig()
	if err != nil {
		return Spec{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Spec{}, err
	}
	// The server's deterministic cycle budget clamps — and therefore enters
	// — the cell's identity, exactly like a sweep's -cell-budget.
	if lim.CellBudget > 0 && (cfg.MaxCycles == 0 || cfg.MaxCycles > lim.CellBudget) {
		cfg.MaxCycles = lim.CellBudget
	}
	if id.Config, err = experiments.NewConfigIdentity(cfg); err != nil {
		return Spec{}, err
	}
	return Spec{Cell: id, Source: src, Config: cfg}, nil
}
