package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ipex/internal/experiments"
	"ipex/internal/harness"
	"ipex/internal/power"
	"ipex/internal/workload"
)

// sweepJournal is the paper sweep as a user runs it with -journal: every
// run starts from a fresh workload store and a fresh durable journal (the
// cold pass), then resumes that journal so every cell replays (the warm
// pass).
type sweepJournal struct {
	cfg  config
	ref  []byte
	runs int
	// insts is the simulated-instruction total of one sweep's cells.
	insts uint64
}

func newSweepJournal(cfg config) bench { return &sweepJournal{cfg: cfg} }

// setup generates every power trace the sweep replays: what a user pays
// before the first cell runs.
func (b *sweepJournal) setup() (span, error) { return genTraces(b.cfg.seed), nil }

func genTraces(seed uint64) span {
	stop := measure()
	for _, src := range power.Sources {
		power.Generate(src, power.DefaultTraceSamples, seed)
	}
	return stop()
}

func (b *sweepJournal) options(sup *harness.Supervisor) experiments.Options {
	return experiments.Options{
		Scale: b.cfg.sweepScale, Apps: b.cfg.apps, TraceSeed: b.cfg.seed,
		Parallelism: b.cfg.workers, Workloads: workload.NewStore(), Sup: sup,
	}
}

// reference renders the sweep once, serially on the generic interpreter
// loop; every timed run must reproduce it byte for byte.
func (b *sweepJournal) reference(res *result) error {
	sink := &statsSink{}
	o := b.options(&harness.Supervisor{Journal: sink})
	o.Parallelism, o.GenericLoop = 1, true
	out := runSweep(o)
	if out.errs > 0 {
		return fmt.Errorf("%d experiment(s) failed", out.errs)
	}
	b.ref = out.text
	b.insts = sink.st.insts
	res.digest("sweep.reference", sha(out.text))
	return nil
}

func (b *sweepJournal) run(res *result, traced bool) (sample, error) {
	b.runs++
	dir := filepath.Join(b.cfg.work, fmt.Sprintf("sweep-%d", b.runs))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return sample{}, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "sweep.jsonl")
	key := sweepKey(b.options(nil), b.cfg.appList())

	var s sample
	var sink *statsSink
	var l map[string]float64
	stop := measure()
	j, err := harness.CreateJournal(path, key)
	if err != nil {
		return s, err
	}
	sup := &harness.Supervisor{Journal: j}
	if traced {
		sink = &statsSink{inner: j}
		sup.Journal, sup.Obs = sink, newObs()
	}
	o := b.options(sup)
	cold := runSweep(o)
	s.cold = stop()
	if err := j.Close(); err != nil {
		return s, err
	}

	stop = measure()
	j2, replay, warns, err := harness.ResumeJournal(path, key)
	if err != nil {
		return s, err
	}
	sup2 := &harness.Supervisor{Journal: j2, Replay: replay}
	warm := runSweep(b.options(sup2))
	s.warm = stop()
	if err := j2.Close(); err != nil {
		return s, err
	}

	s.insts, s.tput, s.lat = float64(b.insts), s.cold, cold.expLat
	cs, ws := sup.Counters.Snapshot(), sup2.Counters.Snapshot()
	res.ops(cs.Executed+ws.Replayed, cs.Failures+ws.Failures+uint64(cold.errs+warm.errs))
	st, err := checkJournal(res, path, cs.Executed)
	if err != nil {
		return s, err
	}
	res.check("sweep output = generic-loop serial reference", bytes.Equal(cold.text, b.ref))
	res.check("resumed sweep output = reference", bytes.Equal(warm.text, b.ref))
	res.check("resume replays every executed cell", len(warns) == 0 && len(replay) == len(st.keys) &&
		ws.Replayed == cs.Executed && ws.Executed == 0)
	res.digest("sweep.cold", sha(cold.text))
	res.digest("sweep.warm", sha(warm.text))
	res.model.observe(res, cold.fig10Gain, st.cycles)

	if traced {
		l = map[string]float64{}
		if err := b.layers(l, sup, sink, cold, s.cold.wall, path); err != nil {
			return s, err
		}
		s.layers = l
	}
	return s, nil
}

// layers fills the traced run's per-layer metrics.
func (b *sweepJournal) layers(l map[string]float64, sup *harness.Supervisor, sink *statsSink, cold sweepOut, coldWall time.Duration, path string) error {
	l["power.gen_s"] = genTraces(b.cfg.seed).wall.Seconds()
	streams, gen, err := genStreams(b.cfg.appList(), b.cfg.sweepScale)
	if err != nil {
		return err
	}
	l["workload.gen_s"] = gen.Seconds()
	l["workload.streams"] = float64(len(streams))
	for _, st := range streams {
		l["workload.insts"] += float64(st.Len())
	}
	probe, tr, err := probeInputs(b.cfg)
	if err != nil {
		return err
	}
	if err := probeLayers(l, probe, tr); err != nil {
		return err
	}
	journalLayers(l, sink, path)
	harnessLayers(l, sup, sink.st, coldWall.Seconds(), cold.renderS, 0, b.cfg.workers)
	simLayers(l, sink.st)
	finishNvp(l)
	return nil
}

// checkJournal checks that the journal at path holds exactly one
// readable cell entry per executed cell and no failures, and returns the
// totals of its entries.
func checkJournal(res *result, path string, executed uint64) (cellStats, error) {
	st, fails, bad, err := scanJournal(path)
	if err != nil {
		return st, err
	}
	res.check("journal holds one cell entry per executed cell", st.cells == executed && fails == 0 && bad == 0)
	return st, nil
}

// journalLayers reports the journal appends a timing sink saw.
func journalLayers(l map[string]float64, sink *statsSink, path string) {
	lat := ms(sink.lat)
	var sum float64
	for _, v := range lat {
		sum += v
	}
	l["journal.appends"] = float64(len(lat))
	l["journal.append_s"] = sum / 1e3
	l["journal.append_p50_ms"] = percentile(lat, 0.50)
	l["journal.append_p99_ms"] = percentile(lat, 0.99)
	if fi, err := os.Stat(path); err == nil {
		l["journal.bytes"] = float64(fi.Size())
	}
}

// genStreams generates the apps' access streams into a fresh store and
// reports how long that took.
func genStreams(apps []string, scale float64) ([]*workload.Stream, time.Duration, error) {
	store := workload.NewStore()
	var out []*workload.Stream
	start := time.Now()
	for _, app := range apps {
		st, err := store.Stream(app, scale)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, st)
	}
	return out, time.Since(start), nil
}

// probeInputs builds simcore's streams and trace, which every traced run
// replays through the simulator's sub-layers.
func probeInputs(cfg config) ([]*workload.Stream, *power.Trace, error) {
	streams, _, err := genStreams(cfg.appList(), cfg.simScale)
	return streams, power.Generate(power.RFHome, power.DefaultTraceSamples, cfg.seed), err
}

func sha(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
