// Observability-overhead benchmarks: the span-instrumented access path
// with tracing detached, attached-but-unsampled, sampled at the default
// 1-in-64 rate, and tracing every access. The detached and unsampled
// numbers are the tentpole's "free when off" claim — CI pins their
// allocs/op to zero — and TestWriteObsBench writes the grid as a
// telemetry snapshot (BENCH_obs.json via `make bench`) so future PRs
// inherit a machine-readable overhead trajectory.
package molcache_test

import (
	"fmt"
	"os"
	"testing"

	"molcache/internal/molecular"
	"molcache/internal/telemetry"
	"molcache/internal/trace"
)

// spanVariants is the tracing axis of the overhead grid. every == 0
// means no tracer attached at all; otherwise a 1-in-every sampler.
var spanVariants = []struct {
	name  string
	every uint64
}{
	{"off", 0},
	// 1<<30 keeps StartAccess returning false for the whole run: the
	// "attached but this access is unsampled" fast path.
	{"unsampled", 1 << 30},
	{"sampled64", 64},
	{"always", 1},
}

// spanCache is hotCache plus a span tracer variant attached after
// warmup (so warmup accesses don't consume buffer or samples).
func spanCache(tb testing.TB, every uint64) (*molecular.Cache, []trace.Ref, *telemetry.SpanTracer) {
	c, refs := hotCache(tb, molecular.RandyReplacement, 64, 1, false)
	var st *telemetry.SpanTracer
	if every > 0 {
		st = telemetry.NewSpanTracer(every, 0)
	}
	c.AttachSpans(st)
	return c, refs, st
}

// benchAccessSpans drives the warmed hit stream under one tracing
// variant.
func benchAccessSpans(b *testing.B, every uint64) {
	c, refs, _ := spanCache(b, every)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(refs[i%len(refs)])
	}
}

// BenchmarkAccessSpans measures span-tracing overhead on the hot access
// path. Compare "off" and "unsampled" against BenchmarkAccessHot's fast
// path: both must be allocation-free and within noise of uninstrumented.
func BenchmarkAccessSpans(b *testing.B) {
	for _, v := range spanVariants {
		v := v
		b.Run(v.name, func(b *testing.B) { benchAccessSpans(b, v.every) })
	}
}

// TestSpanHotPathZeroAllocs pins the "0 allocs when tracing is off"
// claim deterministically (the CI overhead guard runs this; benchmarks
// only report). Both shapes of "off" are covered: no tracer attached,
// and a tracer attached whose sampler rejects the access.
func TestSpanHotPathZeroAllocs(t *testing.T) {
	for _, v := range spanVariants[:2] { // off, unsampled
		c, refs, st := spanCache(t, v.every)
		hitsBefore := c.Ledger().Total.Hits
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			c.Access(refs[i%len(refs)])
			i++
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per hit, want 0", v.name, allocs)
		}
		if c.Ledger().Total.Hits == hitsBefore {
			t.Errorf("%s: warmed stream did not hit; the property is vacuous", v.name)
		}
		if st != nil && st.SampledAccesses() != 0 {
			t.Errorf("%s: sampler fired %d times; the unsampled path was not measured",
				v.name, st.SampledAccesses())
		}
	}
}

// TestSpanSampledPathRecords sanity-checks the other end of the grid:
// with every=1 the tracer records spans for each access and never
// disturbs results (hits keep hitting).
func TestSpanSampledPathRecords(t *testing.T) {
	c, refs, st := spanCache(t, 1)
	missesBefore := c.Ledger().Total.Misses
	for i := 0; i < 256; i++ {
		c.Access(refs[i%len(refs)])
	}
	if st.SampledAccesses() != 256 {
		t.Fatalf("sampled %d accesses, want 256", st.SampledAccesses())
	}
	if st.Len() == 0 {
		t.Fatal("no spans recorded")
	}
	if got := c.Ledger().Total.Misses; got != missesBefore {
		t.Fatalf("tracing perturbed the stream: misses %d -> %d", missesBefore, got)
	}
}

// TestWriteObsBench runs the tracing grid through testing.Benchmark and
// writes ns/op, allocs/op and each variant's overhead over "off" as a
// host-stamped (stampHost) telemetry snapshot to $BENCH_OBS_OUT.
// Skipped unless BENCH_OBS_OUT is set: `make bench` (and the CI bench
// job) set it to BENCH_obs.json.
func TestWriteObsBench(t *testing.T) {
	out := os.Getenv("BENCH_OBS_OUT")
	if out == "" {
		t.Skip("BENCH_OBS_OUT not set; set it to write the observability benchmark snapshot")
	}
	reg := telemetry.NewRegistry()
	var offNs float64
	for _, v := range spanVariants {
		v := v
		r := testing.Benchmark(func(b *testing.B) { benchAccessSpans(b, v.every) })
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		label := fmt.Sprintf("{variant=%q}", v.name)
		reg.Gauge("obs_span_bench_ns_per_op" + label).Set(ns)
		reg.Gauge("obs_span_bench_allocs_per_op" + label).Set(float64(r.AllocsPerOp()))
		if v.name == "off" {
			offNs = ns
		} else if offNs > 0 {
			reg.Gauge("obs_span_bench_overhead_ratio" + label).Set(ns / offNs)
		}
		t.Logf("%s: %.1f ns/op, %d allocs/op", v.name, ns, r.AllocsPerOp())
	}
	stampHost(reg)
	data, err := reg.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
