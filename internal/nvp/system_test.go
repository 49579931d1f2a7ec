package nvp

import (
	"math"
	"reflect"
	"testing"

	"ipex/internal/energy"
	"ipex/internal/power"
	"ipex/internal/prefetch"
	"ipex/internal/workload"
)

// testTrace returns a short deterministic RFHome trace shared by the tests.
func testTrace() *power.Trace {
	return power.Generate(power.RFHome, 20000, 1)
}

func runApp(t *testing.T, app string, scale float64, mut func(*Config)) Result {
	t.Helper()
	cfg := DefaultConfig()
	if mut != nil {
		mut(&cfg)
	}
	r, err := Run(workload.MustNew(app, scale), testTrace(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunCompletes(t *testing.T) {
	r := runApp(t, "fft", 0.1, nil)
	if !r.Completed {
		t.Fatal("run did not complete")
	}
	if r.Insts != uint64(workload.MustNew("fft", 0.1).Len()) {
		t.Errorf("insts = %d, want the workload length", r.Insts)
	}
	if r.Cycles != r.OnCycles+r.OffCycles {
		t.Errorf("cycle split inconsistent: %d != %d + %d", r.Cycles, r.OnCycles, r.OffCycles)
	}
	if r.OnCycles < r.Insts {
		t.Error("on-cycles below instruction count (CPI >= 1 on an in-order core)")
	}
	if r.App != "fft" || r.Trace != "RFHome" {
		t.Errorf("labels wrong: %q %q", r.App, r.Trace)
	}
}

func TestRunDeterministic(t *testing.T) {
	a := runApp(t, "qsort", 0.1, nil)
	b := runApp(t, "qsort", 0.1, nil)
	if a.Cycles != b.Cycles || a.Energy != b.Energy || a.Outages != b.Outages {
		t.Errorf("identical configs diverged: %+v vs %+v", a, b)
	}
}

func TestEnergyBucketsPopulated(t *testing.T) {
	r := runApp(t, "gsme", 0.1, nil)
	e := r.Energy
	if e.Cache <= 0 || e.Memory <= 0 || e.Compute <= 0 {
		t.Errorf("energy buckets empty: %+v", e)
	}
	if r.Outages > 0 && e.BkRst <= 0 {
		t.Error("outages occurred but no backup/restore energy")
	}
	if e.Memory < e.Cache {
		t.Error("NVM (12.1 mW leak) must dominate cache energy in this system")
	}
}

func TestOutagesWipeProgressless(t *testing.T) {
	// More intense energy draw (PCM) must not lose instructions: JIT
	// checkpointing resumes from the failure point.
	r := runApp(t, "pegwitd", 0.1, nil)
	if r.Outages == 0 {
		t.Skip("trace too generous for outages at this scale")
	}
	if r.Insts != uint64(workload.MustNew("pegwitd", 0.1).Len()) {
		t.Error("instructions lost across outages")
	}
}

func TestIdealRunsFasterOrEqual(t *testing.T) {
	base := runApp(t, "jpegd", 0.1, nil)
	ideal := runApp(t, "jpegd", 0.1, func(c *Config) { c.Ideal = true })
	if ideal.Cycles > base.Cycles {
		t.Errorf("ideal (%d cycles) slower than non-ideal (%d)", ideal.Cycles, base.Cycles)
	}
	if ideal.Energy.BkRst != 0 {
		t.Errorf("ideal run charged Bk+Rst energy: %v", ideal.Energy.BkRst)
	}
	if base.Outages > 0 && base.Energy.BkRst == 0 {
		t.Error("non-ideal run has outages but no Bk+Rst energy")
	}
}

func TestNoPrefetchIssuesNothing(t *testing.T) {
	r := runApp(t, "fft", 0.1, func(c *Config) { *c = c.WithoutPrefetch() })
	if r.PrefetchesIssued() != 0 || r.NVM.PrefetchReads != 0 {
		t.Errorf("prefetch-free config issued prefetches: %d / %d",
			r.PrefetchesIssued(), r.NVM.PrefetchReads)
	}
	if r.Inst.Cache.BufHits != 0 || r.Data.Cache.BufHits != 0 {
		t.Error("buffer hits without prefetching")
	}
}

func TestPrefetchersIssueAndCover(t *testing.T) {
	r := runApp(t, "gsme", 0.2, nil)
	if r.Inst.PrefetchIssued == 0 {
		t.Error("instruction prefetcher idle")
	}
	if r.Data.PrefetchIssued == 0 {
		t.Error("data prefetcher idle")
	}
	if r.Inst.Coverage() <= 0 {
		t.Error("instruction prefetches never covered a miss")
	}
	if r.NVM.PrefetchReads != r.Inst.PrefetchIssued+r.Data.PrefetchIssued {
		t.Errorf("NVM prefetch reads (%d) != issued (%d)",
			r.NVM.PrefetchReads, r.Inst.PrefetchIssued+r.Data.PrefetchIssued)
	}
}

func TestPrefetchAccountingIdentity(t *testing.T) {
	// Default (prefetch-to-cache) mode: every issued prefetch ends as
	// useful, useless (incl. wiped), redundant, or served-while-in-flight;
	// at most a staging buffer's worth may remain unclassified in flight
	// at end of run.
	r := runApp(t, "rijndaeld", 0.2, nil)
	for _, sd := range []SideStats{r.Inst, r.Data} {
		classified := sd.Cache.PrefetchedUseful + sd.Cache.PrefetchedUseless +
			sd.InflightServed + sd.InflightRedundant + sd.InflightWiped
		if classified > sd.PrefetchIssued {
			t.Errorf("classified (%d) exceeds issued (%d)", classified, sd.PrefetchIssued)
		}
		if sd.PrefetchIssued-classified > 4 {
			t.Errorf("%d prefetches unaccounted (issued %d, classified %d)",
				sd.PrefetchIssued-classified, sd.PrefetchIssued, classified)
		}
	}

	// Buffer mode keeps the strict buffer identity.
	rb := runApp(t, "rijndaeld", 0.2, func(c *Config) { c.PrefetchToCache = false })
	for _, sd := range []SideStats{rb.Inst, rb.Data} {
		if sd.Buffer.UsefulEvicted+sd.Buffer.UselessEvicted != sd.Buffer.Inserted {
			t.Errorf("buffer classification incomplete: %+v", sd.Buffer)
		}
		if sd.Buffer.Inserted != sd.PrefetchIssued {
			t.Errorf("issued (%d) != inserted (%d)", sd.PrefetchIssued, sd.Buffer.Inserted)
		}
	}
}

func TestIPEXThrottlesAndAccounts(t *testing.T) {
	base := runApp(t, "jpegd", 0.2, nil)
	ipex := runApp(t, "jpegd", 0.2, func(c *Config) { *c = c.WithIPEX() })
	if base.Inst.PrefetchThrottled != 0 {
		t.Error("baseline should never throttle")
	}
	if ipex.Inst.PrefetchThrottled == 0 && ipex.Data.PrefetchThrottled == 0 {
		t.Error("IPEX never throttled anything")
	}
	if ipex.PrefetchesIssued() >= base.PrefetchesIssued() {
		t.Errorf("IPEX issued %d prefetches, baseline %d — no reduction",
			ipex.PrefetchesIssued(), base.PrefetchesIssued())
	}
	// IPEX stats must be wired through.
	if ipex.Inst.IPEX.Issued == 0 {
		t.Error("IPEX controller stats missing")
	}
}

func TestIPEXDataOnly(t *testing.T) {
	r := runApp(t, "qsort", 0.2, func(c *Config) { *c = c.WithIPEXData() })
	if r.Inst.PrefetchThrottled != 0 {
		t.Error("data-only IPEX throttled the instruction side")
	}
	if r.Data.IPEX.Issued+r.Data.IPEX.Throttled == 0 {
		t.Error("data-side controller inactive")
	}
}

func TestDupSuppressReducesDemandReads(t *testing.T) {
	with := runApp(t, "gsme", 0.2, nil)
	without := runApp(t, "gsme", 0.2, func(c *Config) { c.DupSuppress = false })
	if without.NVM.DemandReads <= with.NVM.DemandReads {
		t.Errorf("§5.1 suppression had no effect: %d vs %d demand reads",
			with.NVM.DemandReads, without.NVM.DemandReads)
	}
	if with.Inst.InflightServed == 0 {
		t.Error("suppression never served a miss from an in-flight prefetch")
	}
	if without.Inst.InflightRedundant <= with.Inst.InflightRedundant {
		t.Error("disabling suppression should inflate redundant prefetches")
	}
}

func TestLargerCacheFewerMisses(t *testing.T) {
	small := runApp(t, "jpegd", 0.1, func(c *Config) { c.ICacheSize = 512; c.DCacheSize = 512 })
	big := runApp(t, "jpegd", 0.1, func(c *Config) { c.ICacheSize = 8192; c.DCacheSize = 8192 })
	if big.Inst.Cache.MissRate() >= small.Inst.Cache.MissRate() {
		t.Errorf("8kB ICache missed more than 512B: %v vs %v",
			big.Inst.Cache.MissRate(), small.Inst.Cache.MissRate())
	}
}

func TestWeakTraceHitsBudget(t *testing.T) {
	// An all-zero power trace can never finish; the budget must stop the
	// run and mark it incomplete.
	cfg := DefaultConfig()
	cfg.MaxCycles = 3_000_000
	dead := &power.Trace{Name: "dead", Samples: []float64{0}}
	r, err := Run(workload.MustNew("fft", 0.1), dead, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed {
		t.Error("run completed with zero input energy")
	}
	if r.Cycles < cfg.MaxCycles {
		t.Errorf("stopped early: %d < %d", r.Cycles, cfg.MaxCycles)
	}
}

func TestTrickleHarvestHitsBudgetDuringRecharge(t *testing.T) {
	// 1 µW trickles in far less than the system draws: after the first
	// outage the recharge back to Von takes ~150M cycles, so a 3M budget
	// must expire inside the recharge loop (not hang, not complete).
	cfg := DefaultConfig()
	cfg.MaxCycles = 3_000_000
	trickle := &power.Trace{Name: "trickle", Samples: []float64{1e-6}}
	r, err := Run(workload.MustNew("fft", 0.1), trickle, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed {
		t.Error("run completed on a 1 µW supply")
	}
	if r.Cycles < cfg.MaxCycles {
		t.Errorf("stopped early: %d < %d", r.Cycles, cfg.MaxCycles)
	}
	if r.Outages == 0 {
		t.Error("initial charge never ran out; trickle premise broken")
	}
	// The budget abort must still produce a self-consistent wall clock.
	if r.OnCycles+r.OffCycles != r.Cycles {
		t.Errorf("cycle split broken: %d + %d != %d", r.OnCycles, r.OffCycles, r.Cycles)
	}
}

func TestBudgetAbortKeepsParanoidClean(t *testing.T) {
	// A truncated run is incomplete, not corrupt: the runtime invariant
	// checker must stay clean when the budget expires mid-workload.
	cfg := DefaultConfig()
	cfg.MaxCycles = 3_000_000
	cfg.Paranoid = true
	trickle := &power.Trace{Name: "trickle", Samples: []float64{1e-6}}
	r, err := Run(workload.MustNew("fft", 0.1), trickle, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed {
		t.Fatal("run completed; test premise broken")
	}
	if r.Invariants == nil {
		t.Fatal("paranoid run carries no report")
	}
	if !r.Invariants.Clean() {
		t.Errorf("budget abort flagged as corruption: %s", r.Invariants.Summary())
	}
}

func TestValidation(t *testing.T) {
	wl := workload.MustNew("fft", 0.01)
	tr := testTrace()

	if _, err := Run(nil, tr, DefaultConfig()); err == nil {
		t.Error("nil workload accepted")
	}
	if _, err := Run(wl, nil, DefaultConfig()); err == nil {
		t.Error("nil trace accepted")
	}
	// Every case must fail Validate and therefore Run. The NVM rows matter
	// because the whole NVMParams arrives verbatim in a /v1/run body.
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"zero cache size", func(c *Config) { c.ICacheSize = 0 }},
		{"absurd degree", func(c *Config) { c.InitialDegree = 99 }},
		{"unknown instruction prefetcher", func(c *Config) { c.IPrefetcher = "warpdrive" }},
		{"unknown data prefetcher", func(c *Config) { c.DPrefetcher = "psychic" }},
		{"IPEX without thresholds", func(c *Config) { *c = c.WithIPEX(); c.IPEX.Thresholds = nil }},
		{"zero NVM size", func(c *Config) { c.NVM.SizeBytes = 0 }},
		{"NaN NVM read energy", func(c *Config) { c.NVM.ReadNJ = math.NaN() }},
		{"Inf NVM write energy", func(c *Config) { c.NVM.WriteNJ = math.Inf(1) }},
		{"negative NVM write energy", func(c *Config) { c.NVM.WriteNJ = -1 }},
		{"negative NVM leakage", func(c *Config) { c.NVM.LeakMW = -0.5 }},
		{"NaN NVM leakage", func(c *Config) { c.NVM.LeakMW = math.NaN() }},
		{"zero NVM read latency", func(c *Config) { c.NVM.ReadCycles = 0 }},
		{"zero NVM write latency", func(c *Config) { c.NVM.WriteCycles = 0 }},
		{"unknown NVM technology", func(c *Config) { c.NVM.Tech = energy.NVMTech(7) }},
		{"negative NVM technology", func(c *Config) { c.NVM.Tech = -1 }},
	} {
		bad := DefaultConfig()
		tc.mut(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
		if _, err := Run(wl, tr, bad); err == nil {
			t.Errorf("%s: Run accepted it", tc.name)
		}
	}
	// A factory overrides its side's Kind, so the Kind is not checked then.
	withFactory := DefaultConfig()
	withFactory.DPrefetcher = "unused"
	withFactory.DPrefetcherFactory = func() prefetch.Prefetcher { return prefetch.NewStride(16) }
	if err := withFactory.Validate(); err != nil {
		t.Errorf("factory-built data side rejected for its unused Kind: %v", err)
	}
}

func TestAllPrefetcherCombinations(t *testing.T) {
	for _, ip := range prefetch.InstructionKinds {
		for _, dp := range prefetch.DataKinds {
			r := runApp(t, "fft", 0.05, func(c *Config) {
				c.IPrefetcher = ip
				c.DPrefetcher = dp
			})
			if !r.Completed {
				t.Errorf("%s/%s did not complete", ip, dp)
			}
		}
	}
}

func TestStallAccounting(t *testing.T) {
	r := runApp(t, "pegwitd", 0.1, nil)
	if r.Inst.StallCycles+r.Data.StallCycles >= r.OnCycles {
		t.Error("stalls exceed on-time")
	}
	if r.Data.StallCycles == 0 {
		t.Error("pegwitd must have data stalls")
	}
	if r.StallFraction() <= 0 || r.StallFraction() >= 1 {
		t.Errorf("stall fraction = %v", r.StallFraction())
	}
}

func TestSecondsConversion(t *testing.T) {
	r := Result{Cycles: 200_000_000} // 1 second at 200 MHz
	if r.Seconds() != 1.0 {
		t.Errorf("Seconds = %v", r.Seconds())
	}
}

func TestSideStatsMetrics(t *testing.T) {
	var s SideStats
	if s.Accuracy() != 0 || s.Coverage() != 0 {
		t.Error("zero stats should yield zero metrics")
	}
	// Buffer mode.
	s.Buffer.Inserted = 10
	s.PrefetchIssued = 10
	s.Buffer.UsefulEvicted = 4
	s.Cache.Misses = 20
	s.Cache.BufHits = 5
	if s.Accuracy() != 0.4 {
		t.Errorf("buffer accuracy = %v", s.Accuracy())
	}
	if s.Coverage() != 0.25 {
		t.Errorf("buffer coverage = %v", s.Coverage())
	}
	// Prefetch-to-cache mode.
	c := SideStats{ToCache: true, PrefetchIssued: 10, InflightServed: 1}
	c.Cache.PrefetchedUseful = 4
	c.Cache.Misses = 15
	if c.Accuracy() != 0.5 {
		t.Errorf("cache accuracy = %v", c.Accuracy())
	}
	// covered = 5, would-be misses = useful(4) + misses(15) = 19
	if got := c.Coverage(); got < 0.262 || got > 0.264 {
		t.Errorf("cache coverage = %v", got)
	}
	// WipedUnused switches per mode.
	c.Cache.PrefetchedWiped = 3
	c.InflightWiped = 2
	if c.WipedUnused() != 5 {
		t.Errorf("WipedUnused = %d", c.WipedUnused())
	}
}

// TestIPEXInertWithoutPrefetchers is a metamorphic check from the paper's
// model: IPEX only throttles prefetch degree, so with both prefetchers off
// attaching it — to either cache, enabled or not — must leave every field
// of the result unchanged, on every app.
func TestIPEXInertWithoutPrefetchers(t *testing.T) {
	const scale = 0.05
	tr := testTrace()
	base := DefaultConfig().WithoutPrefetch()
	variants := map[string]func(*Config){
		"inst": func(c *Config) { c.IPEXInst, c.IPEX.Enabled = true, true },
		"data": func(c *Config) { c.IPEXData, c.IPEX.Enabled = true, true },
		"both": func(c *Config) { c.IPEXInst, c.IPEXData, c.IPEX.Enabled = true, true, true },
		"both-disabled": func(c *Config) {
			c.IPEXInst, c.IPEXData, c.IPEX.Enabled = true, true, false
		},
	}
	for _, app := range workload.Names() {
		want, err := Run(workload.MustNew(app, scale), tr, base)
		if err != nil {
			t.Fatal(err)
		}
		for name, mut := range variants {
			cfg := base
			mut(&cfg)
			got, err := Run(workload.MustNew(app, scale), tr, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", app, name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: attaching IPEX without prefetchers changed the result:\n got %+v\nwant %+v",
					app, name, got, want)
			}
		}
	}
}
