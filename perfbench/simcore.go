package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"ipex/internal/nvp"
	"ipex/internal/power"
	"ipex/internal/stats"
	"ipex/internal/workload"
)

// goldenScale and goldenFile pin the golden suite (golden_test.go): 20
// apps × three configurations at scale 0.25 on seed 1's RFHome trace.
const (
	goldenScale = 0.25
	goldenSeed  = 1
	goldenFile  = "testdata/golden_rfhome.json"
)

type simCell struct {
	app, config string
	st          *workload.Stream
	cfg         nvp.Config
}

// simcore runs the golden cell set plus the default configuration at 1-
// and 8-way associativity, serially through one nvp.Arena per run. A run
// is two passes: the first through a fresh arena (cold), the second
// through the same arena again (warm).
type simcore struct {
	cfg   config
	tr    *power.Trace
	cells []simCell
	// ref holds the DisableFastPaths results, golden the golden file's
	// results keyed by app/config (seed 1 at the golden scale only).
	ref    []nvp.Result
	golden map[string]nvp.Result
}

func newSimcore(cfg config) bench { return &simcore{cfg: cfg} }

func simConfigs() []struct {
	name string
	cfg  nvp.Config
} {
	oneWay, eightWay := nvp.DefaultConfig(), nvp.DefaultConfig()
	oneWay.Ways, eightWay.Ways = 1, 8
	return []struct {
		name string
		cfg  nvp.Config
	}{
		{"default", nvp.DefaultConfig()},
		{"ipex-both", nvp.DefaultConfig().WithIPEX()},
		{"no-prefetch", nvp.DefaultConfig().WithoutPrefetch()},
		{"default-1way", oneWay},
		{"default-8way", eightWay},
	}
}

// setup generates the trace and every app's stream into a fresh store,
// then warms one arena on the first cell.
func (b *simcore) setup() (span, error) {
	stop := measure()
	b.tr = power.Generate(power.RFHome, power.DefaultTraceSamples, b.cfg.seed)
	store := workload.NewStore()
	b.cells = b.cells[:0]
	for _, app := range b.cfg.appList() {
		st, err := store.Stream(app, b.cfg.simScale)
		if err != nil {
			return span{}, err
		}
		for _, c := range simConfigs() {
			b.cells = append(b.cells, simCell{app: app, config: c.name, st: st, cfg: c.cfg})
		}
	}
	if _, err := nvp.NewArena().RunStream(b.cells[0].st, b.tr, b.cells[0].cfg); err != nil {
		return span{}, err
	}
	return stop(), nil
}

// reference runs every cell once on the generic loop and, for seed 1 at
// the golden scale, loads the golden results.
func (b *simcore) reference(res *result) error {
	a := nvp.NewArena()
	b.ref = make([]nvp.Result, len(b.cells))
	for i, c := range b.cells {
		cfg := c.cfg
		cfg.DisableFastPaths = true
		r, err := a.RunStream(c.st, b.tr, cfg)
		if err != nil {
			return err
		}
		b.ref[i] = r
	}
	if b.cfg.seed != goldenSeed || b.cfg.simScale != goldenScale {
		return nil
	}
	data, err := os.ReadFile(filepath.Join(b.cfg.root, goldenFile))
	if err != nil {
		return err
	}
	var runs []struct {
		App, Config string
		Result      nvp.Result
	}
	if err := json.Unmarshal(data, &runs); err != nil {
		return fmt.Errorf("%s: %w", goldenFile, err)
	}
	b.golden = make(map[string]nvp.Result, len(runs))
	for _, r := range runs {
		b.golden[r.App+"/"+r.Config] = r.Result
	}
	return nil
}

func (b *simcore) pass(a *nvp.Arena, lat []time.Duration) ([]nvp.Result, []time.Duration, span, error) {
	out := make([]nvp.Result, len(b.cells))
	stop := measure()
	for i, c := range b.cells {
		cs := time.Now()
		r, err := a.RunStream(c.st, b.tr, c.cfg)
		lat = append(lat, time.Since(cs))
		if err != nil {
			return nil, nil, span{}, err
		}
		out[i] = r
	}
	return out, lat, stop(), nil
}

func (b *simcore) run(res *result, traced bool) (sample, error) {
	var s sample
	lat := make([]time.Duration, 0, 2*len(b.cells))
	a := nvp.NewArena()
	cold, lat, coldSpan, err := b.pass(a, lat)
	if err != nil {
		return s, err
	}
	warm, lat, warmSpan, err := b.pass(a, lat)
	if err != nil {
		return s, err
	}
	s.cold, s.warm, s.lat, s.tput = coldSpan, warmSpan, lat, coldSpan.plus(warmSpan)

	var st cellStats
	var base, ipex []float64
	for _, results := range [][]nvp.Result{cold, warm} {
		for i, r := range results {
			c := b.cells[i]
			st.add("", r)
			res.check("fast loop = generic loop", reflect.DeepEqual(r, b.ref[i]))
			if want, ok := b.golden[c.app+"/"+c.config]; ok {
				res.check("golden_rfhome.json", reflect.DeepEqual(r, want))
			}
		}
	}
	for i, c := range b.cells {
		switch c.config {
		case "default":
			base = append(base, float64(cold[i].Cycles))
		case "ipex-both":
			ipex = append(ipex, float64(cold[i].Cycles))
		}
	}
	res.ops(st.cells, 0)
	s.insts = float64(st.insts)
	digest, err := json.Marshal(cold)
	if err != nil {
		return s, err
	}
	res.digest("simcore.results", sha(digest))
	res.model.observe(res, ipexGain(base, ipex), st.cycles/2)

	if traced {
		l := map[string]float64{}
		start := time.Now()
		power.Generate(power.RFHome, power.DefaultTraceSamples, b.cfg.seed)
		l["power.gen_s"] = time.Since(start).Seconds()
		if err := probeLayers(l, uniqueStreams(b.cells), b.tr); err != nil {
			return s, err
		}
		simLayers(l, st)
		l["nvp.busy_s"] = s.tput.wall.Seconds()
		finishNvp(l)
		s.layers = l
	}
	return s, nil
}

// ipexGain is the geomean of baseline/IPEX-both cycles minus one: Fig.
// 10's IPEX-both gain over this cell set.
func ipexGain(base, ipex []float64) float64 {
	sp := make([]float64, len(base))
	for i := range base {
		sp[i] = base[i] / ipex[i]
	}
	return stats.Geomean(sp) - 1
}

func uniqueStreams(cells []simCell) []*workload.Stream {
	var out []*workload.Stream
	seen := map[*workload.Stream]bool{}
	for _, c := range cells {
		if !seen[c.st] {
			seen[c.st] = true
			out = append(out, c.st)
		}
	}
	return out
}
