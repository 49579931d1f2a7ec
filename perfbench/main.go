// Command perfbench is the repository's benchmark. It runs one of three
// workloads in-process — the paper sweep with a durable journal, the
// simulator core alone, or the sweep driven through an ipexd subprocess —
// for a fixed number of seconds, checks every output, and prints each
// metric by name with its unit and sample distribution. The last line of
// standard output is a JSON summary. README.md in this directory records
// why each workload exists and which layer metric should move which
// end-to-end metric.
//
//	perfbench --workload sweep-journal --seed 1 --seconds 20 --trace 0 --ipexd <path to ipexd>
//
// --trace 0 reports the end-to-end metrics; --trace 1 makes one untraced
// and one traced run and reports the per-layer metrics instead.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"ipex/internal/workload"
)

// config is one invocation. The defaults are the benchmark's workload
// sizes; tests shrink them.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool

	// sweepScale sizes the two sweep workloads, simScale the simulator
	// core workload (the golden suite's scale).
	sweepScale float64
	simScale   float64
	// apps restricts the workloads' app list; nil means all 20.
	apps []string
	// workers bounds sweep parallelism and ipexd's -workers.
	workers int
	// minRuns is the fewest timed runs made however long they take.
	minRuns int
	// setupReps is how many times set-up is repeated for setup_s.
	setupReps int
	// ipexd is the path of the ipexd binary (remote-sweep only).
	ipexd string
	// root is the repository root, for testdata/golden_rfhome.json.
	root string
	// work is the directory that holds journals and server caches.
	work string
}

func defaultConfig() config {
	return config{
		seed:       1,
		seconds:    20,
		sweepScale: 0.05,
		simScale:   0.25,
		workers:    runtime.NumCPU(),
		minRuns:    3,
		setupReps:  9,
		root:       ".",
		work:       ".bench_build",
	}
}

func (c config) appList() []string {
	if len(c.apps) > 0 {
		return c.apps
	}
	return workload.Names()
}

// workloads maps each workload name to its constructor and says whether
// it keeps every worker busy (the sweeps) or runs on one goroutine.
var workloads = map[string]struct {
	new      func(config) bench
	parallel bool
}{
	"sweep-journal": {newSweepJournal, true},
	"simcore":       {newSimcore, false},
	"remote-sweep":  {newRemoteSweep, true},
}

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.workload, "workload", "", "sweep-journal, simcore or remote-sweep")
	flag.Uint64Var(&cfg.seed, "seed", 1, "power-trace seed (the workloads' only input)")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "how long the timed runs go on")
	trace := flag.Int("trace", 0, "0 reports end-to-end metrics, 1 makes a traced run and reports per-layer metrics")
	flag.StringVar(&cfg.ipexd, "ipexd", "", "path of the ipexd binary (remote-sweep)")
	flag.Parse()

	if _, ok := workloads[cfg.workload]; !ok {
		fatalf("unknown --workload %q", cfg.workload)
	}
	if cfg.seed == 0 {
		fatalf("--seed must be positive")
	}
	if !(cfg.seconds > 0) {
		fatalf("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	cfg.traced = *trace == 1
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		fatalf("%v", err)
	}
	work, err := os.MkdirTemp(cfg.work, "perfbench-")
	if err != nil {
		fatalf("%v", err)
	}
	cfg.work = work
	res, err := run(cfg)
	os.RemoveAll(work)
	if err != nil {
		fatalf("%v", err)
	}
	if err := res.print(os.Stdout, cfg); err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", a...)
	os.Exit(1)
}

// bench is one workload. setup is repeated for setup_s and leaves the
// state of its last repetition for the runs; reference computes the
// expected outputs once, outside setup_s; run is one timed run.
type bench interface {
	setup() (span, error)
	reference(res *result) error
	run(res *result, traced bool) (sample, error)
}

// span is the wall time and the CPU time one pass took.
type span struct{ wall, cpu time.Duration }

func (a span) plus(b span) span { return span{a.wall + b.wall, a.cpu + b.cpu} }

// measure starts a span. Its CPU time is this process's (user plus
// system, every thread) plus that of the given child processes.
func measure(pids ...int) func() span {
	w0, c0 := time.Now(), cpuTime(pids)
	return func() span { return span{time.Since(w0), cpuTime(pids) - c0} }
}

func cpuTime(pids []int) time.Duration {
	t := rusage(syscall.RUSAGE_SELF)
	for _, pid := range pids {
		t += procCPU(pid)
	}
	return t
}

// rusage is the user plus system time of this process (RUSAGE_SELF) or
// of its reaped children (RUSAGE_CHILDREN).
func rusage(who int) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(who, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU reads a process's user plus system time from /proc/<pid>/stat
// (fields 14 and 15, in USER_HZ = 100 ticks per second).
func procCPU(pid int) time.Duration {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0
	}
	ut, _ := strconv.ParseUint(f[11], 10, 64)
	st, _ := strconv.ParseUint(f[12], 10, 64)
	return time.Duration(ut+st) * 10 * time.Millisecond
}

// sample is what one timed run measured: a cold and a warm pass.
type sample struct {
	cold, warm span
	// insts simulated instructions are credited over tput.
	insts float64
	tput  span
	// lat are request latencies: experiments for the sweep, cells for
	// simcore, RunRemote calls for remote-sweep.
	lat []time.Duration
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
}

// run executes one invocation and returns its result.
func run(cfg config) (*result, error) {
	w := workloads[cfg.workload]
	b := w.new(cfg)
	res := newResult(cfg)

	var setups, setupWalls []float64
	for i := 0; i < cfg.setupReps; i++ {
		sp, err := b.setup()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, sp.cpu.Seconds())
		setupWalls = append(setupWalls, sp.wall.Seconds())
	}
	if err := b.reference(res); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}

	if cfg.traced {
		return res, tracedRun(b, res)
	}
	threads := 1
	if w.parallel {
		threads = cfg.workers
	}
	var cals, cpus, colds, warms, tputs, walls, coldWalls, warmWalls, wallTputs, lats []float64
	steal0 := stealTicks()
	start := time.Now()
	for len(cpus) < cfg.minRuns || time.Since(start).Seconds() < cfg.seconds {
		cals = append(cals, calibrate(threads).Seconds())
		s, err := b.run(res, false)
		if err != nil {
			return nil, err
		}
		cpus = append(cpus, s.cold.plus(s.warm).cpu.Seconds())
		colds = append(colds, s.cold.cpu.Seconds())
		warms = append(warms, s.warm.cpu.Seconds())
		tputs = append(tputs, s.insts/s.tput.cpu.Seconds()/1e6)
		walls = append(walls, s.cold.plus(s.warm).wall.Seconds())
		coldWalls = append(coldWalls, s.cold.wall.Seconds())
		warmWalls = append(warmWalls, s.warm.wall.Seconds())
		wallTputs = append(wallTputs, s.insts/s.tput.wall.Seconds()/1e6)
		lats = append(lats, ms(s.lat)...)
	}
	res.runs = len(cpus)
	res.stealPct = stealPct(steal0, time.Since(start))
	cal := summarize(cals)
	res.calibration = cal
	// norm scales CPU times to the reference machine speed; a throughput
	// scales inversely.
	k := calNominal.Seconds() / cal.Median
	norm := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	res.metrics = []metric{
		summarized("setup_s", "s", norm(setups, k)),
		summarized("norm_cpu_s", "s", norm(cpus, k)),
		summarized("norm_cold_cpu_s", "s", norm(colds, k)),
		summarized("norm_warm_cpu_s", "s", norm(warms, k)),
		summarized("norm_sim_minst_per_cpu_s", "Minst/s", norm(tputs, 1/k)),
		summarized("peak_rss_mb", "MB", []float64{peakRSSMB("self")}),
	}
	// Request latencies are pooled over every run, so a percentile rests
	// on all the invocation's requests; their distribution is over
	// requests, not runs.
	res.raw = []metric{
		summarized("setup_cpu_s", "s", setups),
		summarized("setup_wall_s", "s", setupWalls),
		summarized("cpu_s", "s", cpus),
		summarized("cold_cpu_s", "s", colds),
		summarized("warm_cpu_s", "s", warms),
		summarized("sim_minst_per_cpu_s", "Minst/s", tputs),
		summarized("wall_s", "s", walls),
		summarized("cold_wall_s", "s", coldWalls),
		summarized("warm_wall_s", "s", warmWalls),
		summarized("sim_minst_per_s", "Minst/s", wallTputs),
		{Name: "req_p50_ms", Unit: "ms", Value: percentile(lats, 0.50), Dist: summarize(lats)},
		{Name: "req_p99_ms", Unit: "ms", Value: percentile(lats, 0.99), Dist: summarize(lats)},
	}
	return res, nil
}

// tracedRun makes one untraced and one traced run and reports the
// per-layer metrics; end-to-end figures never come from it. The process
// metrics are those of the untraced run.
func tracedRun(b bench, res *result) error {
	steal0, start := stealTicks(), time.Now()
	defer func() { res.stealPct = stealPct(steal0, time.Since(start)) }()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	plain, err := b.run(res, false)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	tr, err := b.run(res, true)
	if err != nil {
		return err
	}
	res.runs = 2
	l := tr.layers
	l["gc.cycles"] = float64(after.NumGC - before.NumGC)
	l["alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	pw, tw := plain.cold.plus(plain.warm).wall.Seconds(), tr.cold.plus(tr.warm).wall.Seconds()
	l["trace.overhead_pct"] = 100 * (tw - pw) / pw
	res.layers = l
	return nil
}

// result collects one invocation's checks, digests and metrics.
type result struct {
	workload  string
	seed      uint64
	runs      int
	attempted int
	failed    int
	checks    map[string][2]int // name → {passed, failed}
	digests   map[string]string
	// metrics are the end-to-end metrics, in CPU time normalised by the
	// calibration; raw holds the same runs' measured CPU and wall-clock
	// figures, which are reported but not bounded.
	metrics     []metric
	raw         []metric
	calibration dist
	layers      map[string]float64
	model       modelReport
	// stealPct is the share of CPU time the hypervisor took from this
	// machine's CPUs during the timed runs.
	stealPct float64
}

type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	Dist  dist    `json:"dist"`
}

// modelReport is the simulated Fig. 10 headline. It is informational: the
// values are deterministic per seed and must not change between runs.
type modelReport struct {
	gain   float64
	cycles uint64
	seen   bool
	stable bool
}

// observe records one run's model figures; a value that differs from the
// first run's fails the check.
func (m *modelReport) observe(res *result, gain float64, cycles uint64) {
	if !m.seen {
		m.gain, m.cycles, m.seen, m.stable = gain, cycles, true, true
	}
	ok := gain == m.gain && cycles == m.cycles
	m.stable = m.stable && ok
	res.check("model figures identical across runs", ok)
}

func newResult(cfg config) *result {
	return &result{workload: cfg.workload, seed: cfg.seed,
		checks: make(map[string][2]int), digests: make(map[string]string)}
}

// check counts one output check; a failed one is a failed operation.
func (r *result) check(name string, ok bool) {
	c := r.checks[name]
	r.attempted++
	if ok {
		c[0]++
	} else {
		c[1]++
		r.failed++
	}
	r.checks[name] = c
}

// ops counts operations the workload attempted and how many failed.
func (r *result) ops(attempted, failed uint64) {
	r.attempted += int(attempted)
	r.failed += int(failed)
}

// digest records an output's sha256; a later output under the same name
// must have the same digest.
func (r *result) digest(name, sum string) {
	if prev, ok := r.digests[name]; ok {
		r.check("digest "+name+" stable", prev == sum)
		return
	}
	r.digests[name] = sum
}

// summarized reports the median of per-run samples.
func summarized(name, unit string, samples []float64) metric {
	d := summarize(samples)
	return metric{Name: name, Unit: unit, Value: d.Median, Dist: d}
}

func (r *result) errorRate() float64 {
	return ratio(float64(r.failed), float64(r.attempted))
}

// print writes the human-readable report, the record line and, last, the
// JSON summary line.
func (r *result) print(w io.Writer, cfg config) error {
	bw := bufio.NewWriter(w)
	fp := fingerprint(cfg, r)
	fmt.Fprintf(bw, "perfbench %s seed=%d traced=%v runs=%d\n", r.workload, r.seed, cfg.traced, r.runs)
	fmt.Fprintf(bw, "machine: nproc=%d gomaxprocs=%d cpu=%q go=%s steal=%.1f%%\n", fp.NProc, fp.GoMaxProcs, fp.CPU, fp.Go, fp.StealPct)

	out := make(map[string]any)
	var record []metric
	if cfg.traced {
		l := r.layers
		l["error_rate"] = r.errorRate()
		fmt.Fprintf(bw, "%-28s %-10s %14s\n", "per-layer metric", "unit", "value")
		for _, m := range layerMetrics {
			fmt.Fprintf(bw, "%-28s %-10s %14.6g\n", m.name, m.unit, l[m.name])
			out[m.name] = map[string]any{"value": l[m.name], "unit": m.unit}
			record = append(record, metric{Name: m.name, Unit: m.unit, Value: l[m.name], Dist: summarize([]float64{l[m.name]})})
		}
	} else {
		fmt.Fprintf(bw, "%-20s %-8s %12s %12s %12s %12s %12s %6s\n", "metric", "unit", "median", "q1", "q3", "min", "max", "n")
		for _, m := range r.metrics {
			printMetric(bw, m)
			out[m.Name] = map[string]any{"value": m.Value, "unit": m.Unit}
		}
		fmt.Fprintf(bw, "calibration: %.6g s CPU (median of %d; q1 %.6g, q3 %.6g); normalised = measured × %v / calibration\n",
			r.calibration.Median, r.calibration.N, r.calibration.Q1, r.calibration.Q3, calNominal)
		fmt.Fprintln(bw, "as measured (reported, not bounded: the machine's speed drifts by more than any useful bound):")
		for _, m := range r.raw {
			printMetric(bw, m)
		}
		record = append(append(record, r.metrics...), r.raw...)
		fmt.Fprintf(bw, "error_rate %.6g (%d failed of %d attempted)\n", r.errorRate(), r.failed, r.attempted)
	}

	names := make([]string, 0, len(r.checks))
	for n := range r.checks {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		c := r.checks[n]
		status := "ok"
		if c[1] > 0 {
			status = "MISMATCH"
		}
		fmt.Fprintf(bw, "check %-8s %s (%d passed, %d failed)\n", status, n, c[0], c[1])
	}
	names = names[:0]
	for n := range r.digests {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(bw, "sha256 %s %s\n", r.digests[n], n)
	}
	if r.model.seen {
		fmt.Fprintf(bw, "model (simulator, not validated against hardware): Fig. 10 IPEX-both gain %+.2f%% (paper +8.96%%), total simulated cycles %d, identical across runs: %v\n",
			100*r.model.gain, r.model.cycles, r.model.stable)
	}

	rec := map[string]any{"record": map[string]any{
		"schema": "perfbench/v1", "workload": r.workload, "traced": cfg.traced,
		"machine": fp, "calibration_s": r.calibration, "metrics": record,
	}}
	if err := json.NewEncoder(bw).Encode(rec); err != nil {
		return err
	}
	if err := json.NewEncoder(bw).Encode(map[string]any{
		"correct": r.failed == 0, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	}); err != nil {
		return err
	}
	return bw.Flush()
}

func printMetric(w io.Writer, m metric) {
	d := m.Dist
	fmt.Fprintf(w, "%-20s %-8s %12.6g %12.6g %12.6g %12.6g %12.6g %6d\n", m.Name, m.Unit, m.Value, d.Q1, d.Q3, d.Min, d.Max, d.N)
}

type machine struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Seed       uint64 `json:"seed"`
	Runs       int    `json:"runs"`
	// StealPct is CPU time stolen by the hypervisor during the timed
	// runs, as a share of all CPU time: the noise a shared VM adds.
	StealPct float64 `json:"steal_pct"`
}

func fingerprint(cfg config, r *result) machine {
	m := machine{NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		CPU: "unknown", Go: runtime.Version(), Seed: cfg.seed, Runs: r.runs, StealPct: r.stealPct}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// stealTicks reads the machine's cumulative steal time from /proc/stat,
// in clock ticks; 0 where it is not available.
func stealTicks() uint64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseUint(f[8], 10, 64)
	return n
}

// stealPct is the steal time since steal0 as a share of the CPU time of
// every CPU over the elapsed wall time (USER_HZ is 100 on Linux).
func stealPct(steal0 uint64, elapsed time.Duration) float64 {
	stolen := float64(stealTicks()-steal0) / 100
	return 100 * stolen / (elapsed.Seconds() * float64(runtime.NumCPU()))
}

// peakRSSMB reads VmHWM (peak resident set) of a process from /proc;
// pid "self" is this process.
func peakRSSMB(pid string) float64 {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
