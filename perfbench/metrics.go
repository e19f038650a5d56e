package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricSpec names one metric and its unit. The two tables below are
// the benchmark's metric set and match BENCHMARK.json (a test holds them
// to it).
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports, on every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_ops_per_s", "ops/s"},
	{"latency_p50_us", "us"},
	{"goodput_ops_per_s", "ops/s"},
	{"alloc_bytes_per_op", "B/op"},
	{"rss_peak_mb", "MiB"},
	{"sim_miss_rate", "fraction"},
	{"sim_probes_per_access", "molecules"},
}

// perLayer are the metrics a --trace 1 run reports. A layer a workload
// never calls reports 0 (the README's table marks those cells). Two
// whole-run metrics sit here too, because they cannot carry an
// end-to-end bound: sim_deviation is 0 whenever every application meets
// its goal, and latency_p99_us varies from run to run by more than any
// bound the benchmark may set (see README.md).
var perLayer = []metricSpec{
	{"trace.read_ns", "ns"},
	{"molecular.access_ns", "ns"},
	{"molecular.hit_rate", "fraction"},
	{"molecular.remote_frac", "fraction"},
	{"molecular.index_hit_rate", "fraction"},
	{"resize.tick_ns", "ns"},
	{"resize.decisions", "count"},
	{"resize.molecules_moved", "count"},
	{"sim_deviation", "fraction"},
	{"latency_p99_us", "us"},
	{"shard.batch_ns_per_access", "ns"},
	{"shard.speedup_vs_access_loop", "ratio"},
	{"cmp.proc_refs_per_s", "refs/s"},
	{"cmp.l2_refs_per_proc_ref", "ratio"},
	{"server.decode_ns", "ns"},
	{"server.batch_mean_accesses", "count"},
	{"server.batches", "count"},
	{"server.replies_per_read", "ratio"},
	{"server.sim_batch_us", "us"},
	{"server.journal_batch_us", "us"},
	{"server.journal_bytes_per_access", "B"},
	{"server.unattributed_us", "us"},
	{"obs.collect_us", "us"},
	{"snapshot.checkpoint_ms", "ms"},
	{"snapshot.checkpoint_bytes", "B"},
	{"bench.generator_lag_p99_us", "us"},
	{"bench.trace_overhead_frac", "fraction"},
	{"bench.span_coverage_frac", "fraction"},
}

// activeMetrics is the table a run reports from.
func (c config) activeMetrics() []metricSpec {
	if c.trace {
		return perLayer
	}
	return endToEnd
}

// finish holds the report to its table: every metric present with its
// unit. A per-layer metric of a layer the workload never calls is
// reported as 0 and noted; a missing end-to-end metric fails the run.
func (r *report) finish() {
	var absent []string
	for _, m := range r.cfg.activeMetrics() {
		got, ok := r.metrics[m.name]
		switch {
		case !ok && r.cfg.trace:
			r.metrics[m.name] = metric{Value: 0, Unit: m.unit}
			absent = append(absent, m.name)
		case !ok:
			r.check("metric "+m.name, false, "not measured")
		case got.Unit != m.unit:
			r.check("metric "+m.name, false, "unit %q, want %q", got.Unit, m.unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			r.check("metric "+m.name, false, "value %v is not a number", got.Value)
		}
	}
	if len(absent) > 0 {
		r.note("layers not on this workload's path report 0: %s", strings.Join(absent, ", "))
	}
}

// timing summarizes duration samples: the median, p99, and the highest
// percentile with at least ten samples beyond it.
type timing struct {
	n        int
	p50, p99 float64
	tailPct  float64
	tail     float64
}

func (t timing) String() string {
	return fmt.Sprintf("p50 %.4g p99 %.4g p%g %.4g (n=%d)", t.p50, t.p99, t.tailPct, t.tail, t.n)
}

// summarize sorts samples in place and summarizes them.
func summarize(samples []float64) timing {
	sort.Float64s(samples)
	t := timing{n: len(samples)}
	if t.n == 0 {
		return t
	}
	t.p50 = quantile(samples, 0.50)
	t.p99 = quantile(samples, 0.99)
	t.tailPct = 50
	t.tail = t.p50
	for _, q := range []float64{0.9999, 0.999, 0.99, 0.9} {
		if float64(t.n)*(1-q) >= 10 {
			t.tailPct = q * 100
			t.tail = quantile(samples, q)
			break
		}
	}
	return t
}

// latencies holds latency samples in microseconds, one stream per
// source (a connection, the replay loop), each in the order its
// requests were due.
type latencies struct{ streams [][]float64 }

func (l *latencies) add(us float64) {
	if len(l.streams) == 0 {
		l.streams = append(l.streams, nil)
	}
	last := len(l.streams) - 1
	l.streams[last] = append(l.streams[last], us)
}

// merge adds o's streams as streams of their own.
func (l *latencies) merge(o latencies) { l.streams = append(l.streams, o.streams...) }

func (l *latencies) all() []float64 {
	var out []float64
	for _, v := range l.streams {
		out = append(out, v...)
	}
	return out
}

// sliceSamples is the length of the runs of consecutive samples the
// latency metrics are taken over: the smallest with ten samples beyond
// its p99.
const sliceSamples = 1000

// sliced cuts each stream into runs of sliceSamples consecutive samples
// and returns the median across runs of each run's p50 and p99. A stall
// moves a whole-window p99 by however many requests it caught, and the
// box's scheduling stalls come and go from second to second; the median
// over hundreds of runs moves only when most of the window is slower.
// With fewer samples than one run, the whole window counts as one.
func (l *latencies) sliced() (p50, p99 float64, slices int) {
	var p50s, p99s []float64
	for _, v := range l.streams {
		for len(v) >= sliceSamples {
			t := summarize(append([]float64(nil), v[:sliceSamples]...))
			p50s, p99s = append(p50s, t.p50), append(p99s, t.p99)
			v = v[sliceSamples:]
		}
	}
	if len(p50s) == 0 {
		t := summarize(l.all())
		return t.p50, t.p99, 1
	}
	return median(p50s), median(p99s), len(p50s)
}

// quantile is the nearest-rank quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// perSecond counts events by the whole second of the window they fell
// in.
type perSecond []int64

func (c *perSecond) add(at int64) {
	sec := int(at / int64(time.Second))
	for len(*c) <= sec {
		*c = append(*c, 0)
	}
	(*c)[sec]++
}

func (c *perSecond) merge(o perSecond) {
	for sec, n := range o {
		for len(*c) <= sec {
			*c = append(*c, 0)
		}
		(*c)[sec] += n
	}
}

// rate is the median count over the window's first whole seconds, or,
// in a window shorter than a second, total/seconds.
func (c perSecond) rate(seconds float64) float64 {
	whole := min(int(seconds), len(c))
	if whole == 0 {
		var total int64
		for _, n := range c {
			total += n
		}
		return float64(total) / seconds
	}
	v := make([]float64, whole)
	for i := range v {
		v[i] = float64(c[i])
	}
	return median(v)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// totalAlloc is the process's cumulative heap allocation in bytes.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// rssPeakMiB is the process's peak resident set (VmHWM) in MiB.
func rssPeakMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
