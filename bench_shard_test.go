// Sharded-engine benchmarks: the epoch-parallel AccessBatch against the
// serial fast path, over shard count × batch size, on a warmed
// multi-region hit stream spread across every cluster (the workload
// shape sharding exists for: independent per-application regions homed
// in different clusters). TestWriteShardBench re-runs the grid through
// testing.Benchmark and writes the results as a telemetry snapshot
// (BENCH_shard.json via `make bench`), giving future PRs a
// machine-readable scaling trajectory.
package molcache_test

import (
	"fmt"
	"os"
	"testing"

	"molcache/internal/addr"
	"molcache/internal/molecular"
	"molcache/internal/shard"
	"molcache/internal/telemetry"
	"molcache/internal/trace"
)

// shardBenchRegions is the number of per-application regions, one homed
// in each of the 8 clusters.
const shardBenchRegions = 8

// shardBenchCache builds an 8-cluster cache with one warmed region per
// cluster and an interleaved all-hit reference stream that rotates
// through the regions — so at any shard count every shard receives an
// equal slice of each batch.
func shardBenchCache(tb testing.TB) (*molecular.Cache, []trace.Ref) {
	tb.Helper()
	c, err := molecular.New(molecular.Config{
		TotalSize:       1 * addr.MB,
		MoleculeSize:    8 * addr.KB,
		TilesPerCluster: 2,
		Clusters:        8,
		Policy:          molecular.RandyReplacement,
		Seed:            2006,
	})
	if err != nil {
		tb.Fatal(err)
	}
	linesPerMol := int(c.Config().MoleculeSize / c.Config().LineSize)
	perRegion := make([][]trace.Ref, shardBenchRegions)
	for i := 0; i < shardBenchRegions; i++ {
		asid := uint16(i + 1)
		if _, err := c.CreateRegion(asid, molecular.RegionOptions{
			HomeCluster: i, HomeTile: -1, InitialMolecules: 12,
		}); err != nil {
			tb.Fatal(err)
		}
		// One line per direct-mapped slot: a working set Randy keeps
		// resident forever, so the stream hits after one warm pass.
		refs := make([]trace.Ref, linesPerMol)
		for b := 0; b < linesPerMol; b++ {
			refs[b] = trace.Ref{
				Addr: uint64(asid)<<32 | uint64(b)*c.Config().LineSize,
				ASID: asid, Kind: trace.Read,
			}
		}
		perRegion[i] = refs
	}
	// Interleave region streams round-robin and warm with two passes.
	var stream []trace.Ref
	for b := 0; b < linesPerMol; b++ {
		for i := 0; i < shardBenchRegions; i++ {
			stream = append(stream, perRegion[i][b])
		}
	}
	for pass := 0; pass < 2; pass++ {
		for _, r := range stream {
			c.Access(r)
		}
	}
	return c, stream
}

// benchReplayBatches drives b.N accesses through run in windows of
// batch refs, cycling the warmed stream.
func benchReplayBatches(b *testing.B, refs []trace.Ref, batch int, run func([]trace.Ref)) {
	b.ResetTimer()
	done := 0
	for done < b.N {
		n := batch
		if rem := b.N - done; n > rem {
			n = rem
		}
		base := done % len(refs)
		if base+n > len(refs) {
			n = len(refs) - base
		}
		run(refs[base : base+n])
		done += n
	}
}

// BenchmarkAccessBatch measures the serial AccessBatch fold — the
// baseline the sharded engine must beat, and the cost of batching
// itself relative to BenchmarkAccessHot's single-access loop.
func BenchmarkAccessBatch(b *testing.B) {
	for _, batch := range []int{1024, 8192} {
		batch := batch
		b.Run(fmt.Sprintf("batch%d", batch), func(b *testing.B) {
			c, refs := shardBenchCache(b)
			b.ReportAllocs()
			benchReplayBatches(b, refs, batch, func(w []trace.Ref) { c.AccessBatch(w) })
		})
	}
}

// BenchmarkShardedRun measures the epoch-parallel engine over shard
// count × batch size. ns/op at shards=1 is the epoch machinery's
// overhead floor; the ratio serial/shardsN is the scaling curve.
func BenchmarkShardedRun(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		for _, batch := range []int{1024, 8192} {
			shards, batch := shards, batch
			b.Run(fmt.Sprintf("shards%d/batch%d", shards, batch), func(b *testing.B) {
				c, refs := shardBenchCache(b)
				eng := shard.New(c, nil, shards)
				b.ReportAllocs()
				benchReplayBatches(b, refs, batch, func(w []trace.Ref) { eng.AccessBatch(w) })
			})
		}
	}
}

// TestWriteShardBench runs serial AccessBatch plus the sharded grid
// through testing.Benchmark and writes ns/op and the serial-over-shard
// speedups as a host-stamped (stampHost) telemetry snapshot to
// $BENCH_SHARD_OUT. Skipped unless BENCH_SHARD_OUT is set: `make bench`
// (and the CI bench job) set it to BENCH_shard.json.
func TestWriteShardBench(t *testing.T) {
	out := os.Getenv("BENCH_SHARD_OUT")
	if out == "" {
		t.Skip("BENCH_SHARD_OUT not set; set it to write the shard benchmark snapshot")
	}
	reg := telemetry.NewRegistry()
	for _, batch := range []int{1024, 8192} {
		batch := batch
		serial := testing.Benchmark(func(b *testing.B) {
			c, refs := shardBenchCache(b)
			benchReplayBatches(b, refs, batch, func(w []trace.Ref) { c.AccessBatch(w) })
		})
		serialNs := float64(serial.T.Nanoseconds()) / float64(serial.N)
		label := fmt.Sprintf("{config=%q,path=%q}", fmt.Sprintf("batch%d", batch), "serial")
		reg.Gauge("molcache_shard_bench_ns_per_access" + label).Set(serialNs)
		t.Logf("batch%d serial: %.1f ns/access", batch, serialNs)
		for _, shards := range []int{2, 4, 8} {
			shards := shards
			res := testing.Benchmark(func(b *testing.B) {
				c, refs := shardBenchCache(b)
				eng := shard.New(c, nil, shards)
				benchReplayBatches(b, refs, batch, func(w []trace.Ref) { eng.AccessBatch(w) })
			})
			ns := float64(res.T.Nanoseconds()) / float64(res.N)
			cfg := fmt.Sprintf("batch%d", batch)
			path := fmt.Sprintf("shards%d", shards)
			label := fmt.Sprintf("{config=%q,path=%q}", cfg, path)
			reg.Gauge("molcache_shard_bench_ns_per_access" + label).Set(ns)
			speedup := serialNs / ns
			reg.Gauge("molcache_shard_bench_speedup" + fmt.Sprintf("{config=%q,path=%q}", cfg, path)).Set(speedup)
			t.Logf("batch%d shards%d: %.1f ns/access, %.2fx vs serial", batch, shards, ns, speedup)
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
