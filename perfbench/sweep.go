package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"sync"
	"time"

	"ipex/internal/experiments"
	"ipex/internal/harness"
	"ipex/internal/nvp"
)

type experiment struct {
	id  string
	run func(experiments.Options) (fmt.Stringer, error)
}

func exp[T fmt.Stringer](id string, f func(experiments.Options) (T, error)) experiment {
	return experiment{id: id, run: func(o experiments.Options) (fmt.Stringer, error) {
		r, err := f(o)
		if err != nil {
			return nil, err
		}
		return r, nil
	}}
}

// sweepList is the 30 experiments of `experiments -all`, in its order. It
// is fixed by name here so that the benchmark keeps measuring the same
// sweep when the command's list changes.
var sweepList = []experiment{
	exp("fig01", experiments.Fig01),
	exp("fig02", experiments.Fig02),
	exp("fig04", experiments.Fig04),
	exp("fig10", experiments.Fig10),
	exp("fig11", experiments.Fig11),
	exp("fig12", experiments.Fig12),
	exp("fig13", experiments.Fig13),
	exp("fig14", experiments.Fig14),
	exp("fig15", experiments.Fig15),
	exp("table2", experiments.Table2),
	exp("table3", experiments.Table3),
	exp("table4", experiments.Table4),
	exp("fig16", experiments.Fig16),
	exp("fig17", experiments.Fig17),
	exp("fig18", experiments.Fig18),
	exp("fig19", experiments.Fig19),
	exp("fig20", experiments.Fig20),
	exp("fig21", experiments.Fig21),
	exp("fig22", experiments.Fig22),
	exp("fig23", experiments.Fig23),
	exp("fig24", experiments.Fig24),
	exp("fig25", experiments.Fig25),
	exp("robust-sensor", experiments.RobustSensor),
	exp("robust-ckpt", experiments.RobustCkpt),
	exp("ablation-degree", experiments.AblationDegreePolicy),
	exp("ablation-adaptive", experiments.AblationAdaptive),
	exp("ablation-dup", experiments.AblationDupSuppress),
	exp("ablation-dest", experiments.AblationPrefetchDest),
	exp("ext-reissue", experiments.AblationReissue),
	exp("ext-addrgen", experiments.AblationAddressGen),
}

// sweepKey is the journal header hash of the sweep, as cmd/experiments
// computes it for the same command line.
func sweepKey(o experiments.Options, apps []string) string {
	ids := make([]string, len(sweepList))
	for i, e := range sweepList {
		ids[i] = e.id
	}
	return harness.Key(experiments.SweepIdentity{
		Experiments: ids, Scale: o.Scale, Apps: apps, TraceSeed: o.TraceSeed,
	})
}

// sweepOut is one rendered sweep.
type sweepOut struct {
	text []byte
	// expLat is each experiment's latency: its call plus rendering, the
	// time until a user of the command sees its table.
	expLat  []time.Duration
	renderS float64
	// fig10Gain is Fig. 10's IPEX-both geomean gain over the baseline.
	fig10Gain float64
	errs      int
}

// runSweep runs every experiment of sweepList under o and renders the
// results the way `experiments -all` prints them, minus the timing lines.
func runSweep(o experiments.Options) sweepOut {
	var out sweepOut
	var buf bytes.Buffer
	for _, e := range sweepList {
		start := time.Now()
		r, err := e.run(o)
		if err != nil {
			out.errs++
			fmt.Fprintf(&buf, "%s: error: %v\n\n", e.id, err)
			out.expLat = append(out.expLat, time.Since(start))
			continue
		}
		rs := time.Now()
		s := r.String()
		out.renderS += time.Since(rs).Seconds()
		buf.WriteString(s)
		buf.WriteString("\n\n")
		out.expLat = append(out.expLat, time.Since(start))
		if f, ok := r.(*experiments.Fig10Result); ok {
			out.fig10Gain = f.GmeanIPEXBoth - 1
		}
	}
	out.text = buf.Bytes()
	return out
}

// cellStats accumulates the per-layer counts carried by simulation results.
type cellStats struct {
	cells, insts, cycles, outages uint64
	iAcc, iMiss, dAcc, dMiss      uint64
	bufHits, pfIssued, pfWiped    uint64
	pfUseful                      float64
	throttled, ipexIssued         uint64
	keys                          map[string]bool
}

func (c *cellStats) add(key string, r nvp.Result) {
	c.cells++
	c.insts += r.Insts
	c.cycles += r.Cycles
	c.outages += r.Outages
	c.iAcc += r.Inst.Cache.Accesses
	c.iMiss += r.Inst.Cache.Misses
	c.dAcc += r.Data.Cache.Accesses
	c.dMiss += r.Data.Cache.Misses
	c.bufHits += r.Inst.Cache.BufHits + r.Data.Cache.BufHits
	for _, s := range []nvp.SideStats{r.Inst, r.Data} {
		c.pfIssued += s.PrefetchIssued
		c.pfUseful += s.Accuracy() * float64(s.PrefetchIssued)
		c.pfWiped += s.WipedUnused()
		c.throttled += s.IPEX.Throttled
		c.ipexIssued += s.IPEX.Issued
	}
	if key != "" {
		if c.keys == nil {
			c.keys = make(map[string]bool)
		}
		c.keys[key] = true
	}
}

// scanJournal reads a journal file line by line through harness.ParseLine
// and totals its cell entries. fails counts KindFail entries; bad counts
// lines that do not parse.
func scanJournal(path string) (st cellStats, fails, bad int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return st, 0, 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		e, perr := harness.ParseLine(sc.Bytes())
		switch {
		case perr != nil:
			bad++
		case e.Kind == harness.KindCell:
			st.add(e.Key, *e.Result)
		case e.Kind == harness.KindFail:
			fails++
		}
	}
	return st, fails, bad, sc.Err()
}

// statsSink is a harness.Sink that totals the results it receives and,
// when inner is set, forwards every entry to it and times the append.
type statsSink struct {
	inner harness.Sink

	mu  sync.Mutex
	st  cellStats
	lat []time.Duration
}

func (s *statsSink) Append(e harness.Entry) error {
	var err error
	var d time.Duration
	if s.inner != nil {
		start := time.Now()
		err = s.inner.Append(e)
		d = time.Since(start)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inner != nil {
		s.lat = append(s.lat, d)
	}
	if e.Kind == harness.KindCell && e.Result != nil {
		s.st.add(e.Key, *e.Result)
	}
	return err
}
