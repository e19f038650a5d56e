// Access-path benchmarks: the fast-path block index against the linear
// probe oracle, over region size × line factor × replacement policy,
// on a pure hit stream (the steady state the O(1) index exists for).
// TestWriteAccessBench re-runs the grid through testing.Benchmark and
// writes the results as a telemetry snapshot (BENCH_access.json via
// `make bench`), giving future PRs a machine-readable perf trajectory.
package molcache_test

import (
	"fmt"
	"os"
	"testing"

	"molcache/internal/addr"
	"molcache/internal/molecular"
	"molcache/internal/telemetry"
	"molcache/internal/trace"
)

// benchPolicies is the access-bench grid's policy axis.
var benchPolicies = []molecular.ReplacementKind{
	molecular.RandomReplacement, molecular.RandyReplacement, molecular.LRUDirect,
}

// hotCache builds a single-region cache of exactly `mols` molecules and
// warms a working set that the policy keeps resident forever: one line
// per direct-mapped slot for the randomized policies (distinct slots, so
// no fill ever evicts a set member) and the full region capacity for
// LRU-Direct (whose deterministic invalid-first fill converges in one
// pass). After warmup the stream hits forever.
func hotCache(tb testing.TB, policy molecular.ReplacementKind, mols, lineFactor int, reference bool) (*molecular.Cache, []trace.Ref) {
	tb.Helper()
	c := benchCache(tb, policy, mols, lineFactor, reference)
	linesPerMol := int(c.Config().MoleculeSize / c.Config().LineSize)
	ws := linesPerMol
	if policy == molecular.LRUDirect {
		// LRU-Direct's invalid-first victim would park a one-line-per-slot
		// set entirely in the first molecule of each hashed row, leaving
		// the reference scan trivially short. Its fill is deterministic,
		// though, so a full-capacity set converges in one pass and spreads
		// the hit stream across every molecule of the region — the steady
		// state the index exists for.
		ws = mols * linesPerMol
	}
	refs := make([]trace.Ref, ws)
	for b := 0; b < ws; b++ {
		refs[b] = trace.Ref{Addr: uint64(b) * c.Config().LineSize, ASID: 1, Kind: trace.Read}
	}
	for pass := 0; pass < 2; pass++ {
		for _, r := range refs {
			c.Access(r)
		}
	}
	return c, refs
}

// benchCache builds the grid's cache: 1 MB of 8 KB molecules (128 lines
// each), four tiles per cluster, and one region of exactly `mols`
// molecules for ASID 1.
func benchCache(tb testing.TB, policy molecular.ReplacementKind, mols, lineFactor int, reference bool) *molecular.Cache {
	tb.Helper()
	c, err := molecular.New(molecular.Config{
		TotalSize:       1 * addr.MB,
		MoleculeSize:    8 * addr.KB,
		TilesPerCluster: 4,
		Policy:          policy,
		Seed:            2006,
	})
	if err != nil {
		tb.Fatal(err)
	}
	c.UseReferenceProbe(reference)
	if _, err := c.CreateRegion(1, molecular.RegionOptions{
		HomeCluster: 0, HomeTile: 0,
		InitialMolecules: mols,
		LineFactor:       lineFactor,
	}); err != nil {
		tb.Fatal(err)
	}
	return c
}

// benchAccessHot drives the warmed hit stream through one configuration.
func benchAccessHot(b *testing.B, policy molecular.ReplacementKind, mols, lineFactor int, reference bool) {
	c, refs := hotCache(b, policy, mols, lineFactor, reference)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(refs[i%len(refs)])
	}
}

// BenchmarkAccessHot is the grid: policy × region size × line factor,
// each on the block index and on the reference scan. Compare fast
// vs. reference ns/op for the lookup speedup; allocs/op must be 0 on
// both (the access path allocates nothing in steady state).
func BenchmarkAccessHot(b *testing.B) {
	for _, policy := range benchPolicies {
		for _, mols := range []int{16, 64} {
			for _, lf := range []int{1, 4} {
				for _, path := range []string{"fast", "reference"} {
					policy, mols, lf, ref := policy, mols, lf, path == "reference"
					b.Run(fmt.Sprintf("%s/mol%d/lf%d/%s", policy, mols, lf, path), func(b *testing.B) {
						benchAccessHot(b, policy, mols, lf, ref)
					})
				}
			}
		}
	}
}

// TestAccessHotPathZeroAllocs pins the allocation-elimination claim
// deterministically (benchmarks only report; this fails the build):
// a steady-state hit allocates nothing, on either path.
func TestAccessHotPathZeroAllocs(t *testing.T) {
	for _, reference := range []bool{false, true} {
		c, refs := hotCache(t, molecular.RandyReplacement, 64, 1, reference)
		hitsBefore := c.Ledger().Total.Hits
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			c.Access(refs[i%len(refs)])
			i++
		})
		if allocs != 0 {
			t.Errorf("reference=%v: %v allocs per hit, want 0", reference, allocs)
		}
		if c.Ledger().Total.Hits == hitsBefore {
			t.Errorf("reference=%v: warmed stream did not hit; the property is vacuous", reference)
		}
	}
}

// TestAccessMissPathZeroAllocs extends the hot-path guard to misses: in
// a full region, a steady miss stream (each access evicts a resident
// line and installs another, so the block index removes and adds
// entries at a fixed population) allocates nothing on the fast path.
// The region holds 23 molecules × 128 lines = 2944 resident lines, 128
// short of 3/4 of a 4096-slot index table: an index that re-tabled at a
// fixed population whenever deleted entries filled that margin would
// allocate every 128 removals, several times per run of 512 misses.
func TestAccessMissPathZeroAllocs(t *testing.T) {
	const mols = 23
	for _, lf := range []int{1, 4} {
		c := benchCache(t, molecular.RandyReplacement, mols, lf, false)
		lines := mols * int(c.Config().MoleculeSize/c.Config().LineSize)
		// A cyclic stream over 8× the region's capacity, one access per
		// lf-line fill group, so (almost) every access misses.
		refs := make([]trace.Ref, 8*lines/lf)
		for i := range refs {
			refs[i] = trace.Ref{Addr: uint64(i*lf) * c.Config().LineSize, ASID: 1, Kind: trace.Read}
		}
		i := 0
		access := func() {
			for n := 0; n < 512; n++ {
				c.Access(refs[i%len(refs)])
				i++
			}
		}
		for pass := 0; pass < 2*len(refs)/512; pass++ {
			access()
		}
		r := c.Region(1)
		if r.IndexSize() != lines {
			t.Fatalf("lf=%d: warmed region holds %d lines, want it full at %d", lf, r.IndexSize(), lines)
		}
		missesBefore := c.Ledger().Total.Misses
		allocs := testing.AllocsPerRun(50, access)
		if allocs != 0 {
			t.Errorf("lf=%d: %v allocs per 512 misses, want 0", lf, allocs)
		}
		if misses := c.Ledger().Total.Misses - missesBefore; misses < 51*512*9/10 {
			t.Errorf("lf=%d: only %d of %d measured accesses missed; the property is vacuous", lf, misses, 51*512)
		}
	}
}

// TestWriteAccessBench runs the access grid through testing.Benchmark
// and writes ns/op, allocs/op and the fast-over-reference speedup as a
// host-stamped (stampHost) telemetry snapshot to $BENCH_OUT. Skipped
// unless BENCH_OUT is set: `make bench` (and the CI bench job) set it to
// BENCH_access.json.
func TestWriteAccessBench(t *testing.T) {
	out := os.Getenv("BENCH_OUT")
	if out == "" {
		t.Skip("BENCH_OUT not set; set it to write the access benchmark snapshot")
	}
	reg := telemetry.NewRegistry()
	for _, policy := range benchPolicies {
		for _, mols := range []int{16, 64} {
			for _, lf := range []int{1, 4} {
				policy, mols, lf := policy, mols, lf
				run := func(reference bool) testing.BenchmarkResult {
					return testing.Benchmark(func(b *testing.B) {
						benchAccessHot(b, policy, mols, lf, reference)
					})
				}
				fast, ref := run(false), run(true)
				cfg := fmt.Sprintf("%s/mol%d/lf%d", policy, mols, lf)
				record := func(path string, r testing.BenchmarkResult) float64 {
					ns := float64(r.T.Nanoseconds()) / float64(r.N)
					label := fmt.Sprintf("{config=%q,path=%q}", cfg, path)
					reg.Gauge("molcache_index_bench_ns_per_op" + label).Set(ns)
					reg.Gauge("molcache_index_bench_allocs_per_op" + label).Set(float64(r.AllocsPerOp()))
					return ns
				}
				fastNs := record("fast", fast)
				refNs := record("reference", ref)
				speedup := refNs / fastNs
				reg.Gauge("molcache_index_bench_speedup" + fmt.Sprintf("{config=%q}", cfg)).Set(speedup)
				t.Logf("%s: fast %.1f ns/op, reference %.1f ns/op, speedup %.2fx", cfg, fastNs, refNs, speedup)
			}
		}
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
