// Command perfbench is the repository's end-to-end benchmark. One
// process drives both execution planes through their public Go APIs:
// the offline replay plane (trace.Reader into molcache.Simulator) and
// the molcached serving plane (an in-process server.Server fed over
// loopback TCP). See README.md for the workloads, the metrics and the
// layer-to-metric predictions.
//
//	bash perfbench/run.sh --workload replay --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object
// carrying every end-to-end metric; with --trace 1 it carries every
// per-layer metric instead, taken from spans the harness records
// around its own calls into each layer. Every run also checks the
// program's outputs, on its seed and on a held-out seed derived from
// it, and exits 1 when any check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"molcache/internal/rng"
)

// heldOutStream derives each run's held-out seed from its main seed:
// the checks run again on inputs the measured seed never produced.
const heldOutStream = 0x4e1d

// config is one run's parameters.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// dir receives scratch files (journals, checkpoints, digests,
	// spans). It is created if missing.
	dir  string
	size sizing
}

// sizing fixes how much work a run does apart from its time window.
type sizing struct {
	// replayTraces is how many traces replay generates and replays, one
	// per sub-seed, each for its share of the window; serveSetups is how
	// many times a serve run sets its server up. setup_s is the median
	// set-up.
	replayTraces, serveSetups int
	// procRefs and heldOutProcRefs are the processor references the
	// replay front end drives for each measured trace and for the
	// held-out one.
	procRefs, heldOutProcRefs int
	// shardRefs bounds the refs of replay's serial-vs-sharded timing.
	shardRefs int
	// pipeKeys is serve_pipelined's preloaded keys per connection;
	// mixedKeys is serve_mixed's key space per tenant per connection.
	pipeKeys, mixedKeys int
	// heldOutSeconds is the serve workloads' held-out window.
	heldOutSeconds float64
	// spanLimit caps the spans kept in memory per recorder.
	spanLimit int
}

// fullSize is the size the committed benchmark runs at.
var fullSize = sizing{
	replayTraces:    8,
	serveSetups:     60,
	procRefs:        20_000_000,
	heldOutProcRefs: 2_000_000,
	shardRefs:       1 << 20,
	pipeKeys:        128,
	mixedKeys:       4096,
	heldOutSeconds:  0.5,
	spanLimit:       1 << 20,
}

// tinySize keeps the benchmark's own tests fast.
var tinySize = sizing{
	replayTraces:    2,
	serveSetups:     2,
	procRefs:        200_000,
	heldOutProcRefs: 100_000,
	shardRefs:       1 << 14,
	pipeKeys:        32,
	mixedKeys:       256,
	heldOutSeconds:  0.1,
	spanLimit:       1 << 16,
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config, *report) error{
	"replay":          runReplay,
	"serve_pipelined": runPipelined,
	"serve_mixed":     runMixed,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.dir, "dir", ".bench_build/perfbench-work", "scratch directory")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	cfg.size = fullSize

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep.print(os.Stdout)
	if !rep.correct() {
		os.Exit(1)
	}
}

// run validates cfg, runs the workload and returns its report.
func run(cfg config) (*report, error) {
	drive, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	rep := newReport(cfg)
	if err := drive(cfg, rep); err != nil {
		return nil, err
	}
	rep.finish()
	return rep, nil
}

func (c config) heldOutSeed() uint64 { return rng.DeriveSeed(c.seed, heldOutStream) }

// metric is one reported number, in the result line's JSON shape.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one correctness check's outcome.
type check struct {
	name   string
	ok     bool
	detail string
}

// report gathers a run's metrics, checks, counts and notes.
type report struct {
	cfg       config
	metrics   map[string]metric
	checks    []check
	attempted int64
	failed    int64
	notes     []string
}

func newReport(cfg config) *report {
	return &report{cfg: cfg, metrics: make(map[string]metric)}
}

// metric records a metric of the run's table; the workloads report some
// metrics, such as the sim_* ones, on both kinds of run, and the table
// keeps the ones this run reports.
func (r *report) metric(name string, value float64, unit string) {
	for _, m := range r.cfg.activeMetrics() {
		if m.name == name {
			r.metrics[name] = metric{Value: value, Unit: unit}
			return
		}
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if m.name == name {
			return
		}
	}
	r.check("metric "+name, false, "in neither metric table")
}

func (r *report) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool {
	if r.attempted < 1 {
		return false
	}
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// stamp identifies the machine, toolchain, commit and inputs of a run.
func (r *report) stamp() map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	windowProcs := runtime.GOMAXPROCS(0)
	if r.cfg.workload == mixedKind.name {
		windowProcs = mixedProcs
	}
	return map[string]any{
		"workload":      r.cfg.workload,
		"trace":         r.cfg.trace,
		"seed":          r.cfg.seed,
		"held_out_seed": r.cfg.heldOutSeed(),
		"seconds":       r.cfg.seconds,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		// window_gomaxprocs is the GOMAXPROCS the measured windows ran at.
		"window_gomaxprocs": windowProcs,
		"nproc":             runtime.NumCPU(),
		"cpu_model":         cpuModel(),
		"go_version":        runtime.Version(),
		"commit":            commit,
		"build":             buildIDOrUnknown(),
		"time_utc":          time.Now().UTC().Format(time.RFC3339),
	}
}

// print writes the human-readable lines, then the result JSON as the
// last line.
func (r *report) print(f *os.File) {
	st, _ := json.Marshal(r.stamp())
	fmt.Fprintf(f, "stamp %s\n", st)
	for _, n := range r.notes {
		fmt.Fprintf(f, "note %s\n", n)
	}
	for _, c := range r.checks {
		status := "ok"
		if !c.ok {
			status = "FAIL"
		}
		fmt.Fprintf(f, "check %-34s %-4s %s\n", c.name, status, c.detail)
	}
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(f, "metric %-34s %.6g %s\n", n, m.Value, m.Unit)
	}
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(f, "failed_frac %.6g fraction (%d of %d attempted)\n", frac, r.failed, r.attempted)
	out, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, r.metrics})
	fmt.Fprintf(f, "%s\n", out)
}

// buildID identifies the code being run: a hash of the running
// executable, which changes with any source, dependency or toolchain
// change and is the same for repeated runs of one build.
var buildID = sync.OnceValues(func() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := fnv.New64a()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
})

func buildIDOrUnknown() string {
	if id, err := buildID(); err == nil {
		return id
	}
	return "unknown"
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
