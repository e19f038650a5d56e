package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"molcache"
	"molcache/internal/addr"
	"molcache/internal/obs"
	"molcache/internal/rng"
	"molcache/internal/trace"
)

// replayMix is the four-application L2 stream of the paper's Table 2
// study.
var replayMix = []string{"art", "mcf", "ammp", "parser"}

const (
	// replayGoal is Algorithm 1's miss-rate goal for every application.
	replayGoal = 0.10
	// chunkRefs is the unit replay latency is timed over.
	chunkRefs = 1024
	// shardBatch is the batch size of the serial-vs-sharded timing
	// (molsim's -batch default).
	shardBatch = 4096
	// sampleGap is the mean distance between the accesses a traced pass
	// spans: about 66k accesses over a run's eight traces, a quarter of
	// the recorder's room. The gaps are random, uniform in
	// [1, 2*sampleGap-1]: a fixed stride aliases with the simulator's
	// periodic work and overstated molecular.access by half.
	sampleGap = 256
	// collectReps and checkpointReps repeat the obs and snapshot
	// timings; the metrics are their mean and median.
	collectReps    = 16
	checkpointReps = 3
	// coverageBand bounds how far the layer self times may sum from the
	// traced passes' time per access. On a 2-vCPU Xeon VM they sum to
	// 0.90-1.10 of it (README.md), so the band catches a missing
	// molecular layer, three quarters of an access, but not a missing
	// trace or resize layer.
	coverageBand = 0.25
)

// replayConfig is the paper's Table 2 geometry: a 6 MB molecular cache
// of 2 clusters x 4 tiles with Randy replacement, resized by Algorithm 1
// toward a 10% miss rate.
func replayConfig() (molcache.MolecularConfig, molcache.ResizeConfig) {
	return molcache.MolecularConfig{
			TotalSize:       6 * addr.MB,
			Clusters:        2,
			TilesPerCluster: 4,
			Policy:          molcache.Randy,
			Seed:            replayCacheSeed,
		},
		molcache.ResizeConfig{DefaultGoal: replayGoal}
}

// replayCacheSeed seeds Randy's replacement randomness. It is part of
// the configuration (molsim's default), not of the workload: --seed
// varies the generated trace only.

// replayGoals are the goals sim_deviation is measured against.
func replayGoals() molcache.Goals {
	asids := make([]uint16, len(replayMix))
	for i := range asids {
		asids[i] = uint16(i + 1)
	}
	return molcache.UniformGoals(replayGoal, asids...)
}

// genTrace is a generated L1-miss stream in the binary trace format.
type genTrace struct {
	data             []byte
	procRefs, l2Refs int
	// genTime is the workload+cmp front end's share of the set-up.
	genTime time.Duration
}

// generateTrace builds the L1-miss stream of replayMix the way
// cmd/tracegen does and encodes it in memory.
func generateTrace(seed uint64, procRefs int) (genTrace, error) {
	start := time.Now()
	l2, err := molcache.NewTraditional(molcache.TraditionalConfig{Size: addr.MB, Ways: 4, LineSize: 64})
	if err != nil {
		return genTrace{}, err
	}
	sys, err := molcache.NewSystem(l2, molcache.SystemConfig{CaptureL1Misses: true})
	if err != nil {
		return genTrace{}, err
	}
	for i, name := range replayMix {
		asid := uint16(i + 1)
		gen, err := molcache.NewWorkload(name, uint64(asid)<<36, seed+uint64(asid)*1000)
		if err != nil {
			return genTrace{}, err
		}
		if err := sys.AddCore(asid, gen); err != nil {
			return genTrace{}, err
		}
	}
	sys.Run(procRefs)
	refs := sys.Captured()
	genTime := time.Since(start)

	var buf bytes.Buffer
	buf.Grow(4 + 12*len(refs))
	w := trace.NewWriter(&buf)
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			return genTrace{}, err
		}
	}
	if err := w.Flush(); err != nil {
		return genTrace{}, err
	}
	return genTrace{data: buf.Bytes(), procRefs: procRefs, l2Refs: len(refs), genTime: genTime}, nil
}

// digestResult folds one access's Result into a running digest.
func digestResult(h uint64, r molcache.AccessResult) uint64 {
	const prime = 0x100000001b3
	x := uint64(r.LinesFetched) | uint64(r.LinesEvicted)<<16 | uint64(r.Writebacks)<<32 | uint64(r.TagProbes)<<48
	y := uint64(r.DataReads) << 2
	if r.Hit {
		y |= 1
	}
	if r.RemoteTileHit {
		y |= 2
	}
	return ((h^x)*prime ^ y) * prime
}

const (
	digestSeed      = 0xcbf29ce484222325
	replayCacheSeed = 2006
)

// pass is one replay of the trace through a fresh simulator.
type pass struct {
	sim      *molcache.Simulator
	accesses int64
	complete bool
	digest   uint64
	elapsed  time.Duration
	alloc    uint64
	err      error
}

// replayPass decodes data with trace.Reader and drives Simulator.Access
// until the trace ends or the deadline passes. Each full chunk's
// latency is added to lat.
func replayPass(data []byte, deadline time.Time, lat *latencies) (p pass) {
	p.digest = digestSeed
	a0 := totalAlloc()
	start := time.Now()
	defer func() {
		p.elapsed = time.Since(start)
		p.alloc = totalAlloc() - a0
	}()
	sim, err := molcache.NewSimulator(replayConfig())
	if err != nil {
		p.err = err
		return p
	}
	p.sim = sim
	tr, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		p.err = err
		return p
	}
	chunkStart := time.Now()
	for {
		ref, err := tr.Read()
		if err == io.EOF {
			p.complete = true
			break
		}
		if err != nil {
			p.err = err
			break
		}
		p.digest = digestResult(p.digest, sim.Access(ref))
		p.accesses++
		if p.accesses%chunkRefs == 0 {
			now := time.Now()
			lat.add(float64(now.Sub(chunkStart)) / 1e3)
			if now.After(deadline) {
				break
			}
			chunkStart = now
		}
	}
	return p
}

// replaySpans are the span names of a traced replay.
type replaySpans struct {
	rec                      *recorder
	access, read, mol, tick  uint16
	loop, shard, collect, cp uint16
}

func newReplaySpans(limit int) *replaySpans {
	rec := newRecorder(limit)
	return &replaySpans{
		rec:     rec,
		access:  rec.name("bench.access"),
		read:    rec.name("trace.read"),
		mol:     rec.name("molecular.access"),
		tick:    rec.name("resize.tick"),
		loop:    rec.name("bench.access_loop"),
		shard:   rec.name("shard.batch"),
		collect: rec.name("obs.collect"),
		cp:      rec.name("snapshot.checkpoint"),
	}
}

// tracedPass is replayPass with sampled accesses, while the recorder is
// less than half full, split into spans: trace.read, molecular.access
// (Cache.Access) and resize.tick (Controller.Tick) under a bench.access
// root from the decode's start to the tick's end. The harness's own
// work (the digest fold, the span bookkeeping) runs outside the root.
// Samples are drawn from a source seeded with idBase.
func tracedPass(data []byte, deadline time.Time, sp *replaySpans, idBase uint64) (p pass) {
	p.digest = digestSeed
	gaps := rng.New(idBase)
	next := int64(0)
	start := time.Now()
	defer func() { p.elapsed = time.Since(start) }()
	sim, err := molcache.NewSimulator(replayConfig())
	if err != nil {
		p.err = err
		return p
	}
	p.sim = sim
	tr, err := trace.NewReader(bytes.NewReader(data))
	if err != nil {
		p.err = err
		return p
	}
	rec := sp.rec
	for {
		if p.accesses != next || len(rec.spans)+4 > rec.limit/2 {
			ref, err := tr.Read()
			if err == io.EOF {
				p.complete = true
				break
			}
			if err != nil {
				p.err = err
				break
			}
			p.digest = digestResult(p.digest, sim.Access(ref))
		} else {
			next = p.accesses + 1 + int64(gaps.Uint64()%(2*sampleGap-1))
			rec.now() // warms the clock's path for t0
			t0 := rec.now()
			ref, err := tr.Read()
			if err == io.EOF {
				p.complete = true
				break
			}
			if err != nil {
				p.err = err
				break
			}
			t1 := rec.now()
			res := sim.Cache.Access(ref)
			t2 := rec.now()
			sim.Controller.Tick()
			t3 := rec.now()
			id := idBase + uint64(p.accesses)
			root := rec.add(sp.access, id, -1, t0, t3)
			rec.add(sp.read, id, root, t0, t1)
			rec.add(sp.mol, id, root, t1, t2)
			rec.add(sp.tick, id, root, t2, t3)
			p.digest = digestResult(p.digest, res)
		}
		p.accesses++
		if p.accesses%chunkRefs == 0 && time.Now().After(deadline) {
			break
		}
	}
	return p
}

// checkPass runs replay's per-pass checks and reports whether they all
// held: the pass ran without a decode error, the ledger counts every
// replayed ref, the structural invariants hold, and a complete pass
// replays the whole trace with the reference digest.
func checkPass(rep *report, label string, p pass, l2Refs int, refDigest uint64) bool {
	ok := true
	if p.err != nil {
		rep.check(label+" decode", false, "%v", p.err)
		return false
	}
	if got := p.sim.Cache.Ledger().Total.Accesses(); got != uint64(p.accesses) {
		rep.check(label+" ledger", false, "ledger counts %d accesses, %d refs replayed", got, p.accesses)
		ok = false
	}
	if v := p.sim.CheckInvariants(); len(v) > 0 {
		rep.check(label+" invariants", false, "%d violations, first: %v", len(v), v[0])
		ok = false
	}
	if p.complete && (p.accesses != int64(l2Refs) || p.digest != refDigest) {
		rep.check(label+" digest", false, "%d refs with digest %016x, want %d refs with %016x",
			p.accesses, p.digest, l2Refs, refDigest)
		ok = false
	}
	return ok
}

// digestFile checks a complete pass's digest against the one an earlier
// run of the same build, seed, size and simulator configuration
// recorded under dir, recording it when this is the first run. Keying
// by the build means only runs of the same code are compared: a change
// to the program that changes its Results is judged by the sim_*
// metrics, not failed as incorrect.
func digestFile(dir, name string, digest uint64, accesses int) (bool, string, error) {
	if err := os.MkdirAll(filepath.Join(dir, "digests"), 0o755); err != nil {
		return false, "", err
	}
	build, err := buildID()
	if err != nil {
		return false, "", err
	}
	mcfg, rcfg := replayConfig()
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v %+v", mcfg, rcfg)
	path := filepath.Join(dir, "digests", fmt.Sprintf("%s-config%016x-build%s", name, h.Sum64(), build))
	want := fmt.Sprintf("%016x %d", digest, accesses)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		tmp := path + ".tmp" + strconv.Itoa(os.Getpid())
		if err := os.WriteFile(tmp, []byte(want+"\n"), 0o644); err != nil {
			return false, "", err
		}
		return true, "first run of this build and seed; recorded " + want, os.Rename(tmp, path)
	}
	if err != nil {
		return false, "", err
	}
	got := strings.TrimSpace(string(data))
	return got == want, fmt.Sprintf("this run %s, earlier runs %s", want, got), nil
}

func runReplay(cfg config, rep *report) error {
	sz := cfg.size
	var sp *replaySpans
	if cfg.trace {
		sp = newReplaySpans(sz.spanLimit)
	}
	// Each trace in turn: set it up, then replay it for its share of the
	// window. One trace is in memory at a time.
	var (
		lat                  latencies
		setupSecs, genSecs   []float64
		rates, goods, allocs []float64
		sims                 []simSummary
		accesses, refs       int64
		proc, l2             int
		overheads            []float64
		tracedNs             time.Duration
		tracedN              int64
		digests              = fnv.New64a()
		layerTrace           genTrace
		layerPass            pass
	)
	share := time.Duration(cfg.seconds * float64(time.Second) / float64(sz.replayTraces))
	for k := 0; k < sz.replayTraces; k++ {
		// Set-up: the workload+cmp front end builds the L1-miss stream
		// of sub-seed k and encodes it in the binary trace format.
		runtime.GC()
		start := time.Now()
		g, err := generateTrace(rng.DeriveSeed(cfg.seed, uint64(k)), sz.procRefs)
		if err != nil {
			return err
		}
		setupSecs = append(setupSecs, time.Since(start).Seconds())
		genSecs = append(genSecs, g.genTime.Seconds())
		proc, l2 = proc+g.procRefs, l2+g.l2Refs

		// Pass 1 replays the whole trace: the sim_* metrics and the
		// reference digest come from it. Rates are the median over the
		// untraced replays that reached the trace's end, so one slow
		// trace or one slow moment moves them little.
		var first pass
		var measured, untracedTime, tracedTime time.Duration
		var untracedAcc, tracedAcc int64
		// A traced run replays each trace exactly twice, untraced then
		// traced, both to the end, so the tracing overhead compares the
		// same work.
		for n := 0; (cfg.trace && n < 2) || (!cfg.trace && (n == 0 || measured < share)); n++ {
			deadline := time.Now().Add(share - measured)
			if n == 0 || cfg.trace {
				deadline = time.Now().Add(24 * time.Hour)
			}
			traced := cfg.trace && n == 1
			var p pass
			if traced {
				p = tracedPass(g.data, deadline, sp, uint64(k)<<40|uint64(n)<<32)
				tracedAcc += p.accesses
				tracedTime += p.elapsed
			} else {
				p = replayPass(g.data, deadline, &lat)
				untracedAcc += p.accesses
				untracedTime += p.elapsed
			}
			measured += p.elapsed
			accesses += p.accesses
			if n == 0 {
				if p.err != nil || !p.complete {
					return fmt.Errorf("replay: first pass over trace %d did not complete: %v", k+1, p.err)
				}
				first = p
			}
			ok := checkPass(rep, fmt.Sprintf("trace %d pass %d", k+1, n+1), p, g.l2Refs, first.digest)
			if !ok {
				rep.failed += p.accesses
			}
			if !traced && p.complete {
				rate := float64(p.accesses) / p.elapsed.Seconds()
				rates = append(rates, rate)
				allocs = append(allocs, float64(p.alloc)/float64(p.accesses))
				if !ok {
					rate = 0
				}
				goods = append(goods, rate)
			}
		}
		tracedNs, tracedN = tracedNs+tracedTime, tracedN+tracedAcc
		if tracedAcc > 0 {
			untracedRate := float64(untracedAcc) / untracedTime.Seconds()
			tracedRate := float64(tracedAcc) / tracedTime.Seconds()
			overheads = append(overheads, 1-tracedRate/untracedRate)
		}
		fmt.Fprintf(digests, "%016x", first.digest)
		refs += int64(g.l2Refs)
		sims = append(sims, summarizeSim(first.sim, replayGoals()))
		if k == 0 && cfg.trace {
			layerTrace, layerPass = g, first
		}
	}
	rep.attempted += accesses
	rep.check("passes", rep.failed == 0, "%d refs replayed over %d traces, every replay's ledger, invariants and digest checked",
		accesses, sz.replayTraces)
	ok, detail, err := digestFile(cfg.dir, fmt.Sprintf("replay-seed%d-refs%dx%d", cfg.seed, sz.procRefs, sz.replayTraces), digests.Sum64(), int(refs))
	if err != nil {
		return err
	}
	rep.check("digest across runs", ok, "%s", detail)

	p50, p99, slices := lat.sliced()
	rep.metric("setup_s", median(setupSecs), "s")
	rep.metric("throughput_ops_per_s", median(rates), "ops/s")
	rep.metric("latency_p50_us", p50, "us")
	rep.metric("latency_p99_us", p99, "us")
	rep.metric("goodput_ops_per_s", median(goods), "ops/s")
	rep.metric("alloc_bytes_per_op", median(allocs), "B/op")
	rep.metric("rss_peak_mb", rssPeakMiB(), "MiB")
	recordSims(rep, sims)
	rep.note("latency per %d-ref chunk: median over %d runs of %d chunks p50 %.4g p99 %.4g us; whole window %s us",
		chunkRefs, slices, sliceSamples, p50, p99, summarize(lat.all()))
	rep.note("setup_s samples %.4g; %d traces, %d refs; untraced complete replays: rates %.4g refs/s, allocations %.4g B/ref",
		setupSecs, sz.replayTraces, refs, rates, allocs)
	if cfg.trace {
		perAccess := float64(tracedNs) / float64(tracedN)
		if err := replayLayers(cfg, rep, layerTrace, sp, layerPass, perAccess); err != nil {
			return err
		}
		rep.metric("cmp.proc_refs_per_s", float64(sz.procRefs)/median(genSecs), "refs/s")
		rep.metric("cmp.l2_refs_per_proc_ref", float64(l2)/float64(proc), "ratio")
		rep.metric("bench.trace_overhead_frac", median(overheads), "fraction")
		rep.note("tracing overhead per trace (1 - traced/untraced rate, 1 access in about %d spanned) %.3g", sampleGap, overheads)
	}
	return replayHeldOut(cfg, rep)
}

// replayLayerSpans are the layers a replayed access passes through.
var replayLayerSpans = []string{"trace.read", "molecular.access", "resize.tick"}

// checkCoverage checks that the replay layers' mean self times add up
// to perAccessNs, the traced passes' elapsed time per access, which no
// span measured, within coverageBand: a layer the spans miss, or span
// overhead inflating the layers, trips it. It returns the coverage.
func checkCoverage(rep *report, st map[string]*layerStat, perAccessNs float64) float64 {
	sum := 0.0
	parts := make([]string, len(replayLayerSpans))
	for i, n := range replayLayerSpans {
		sum += st[n].meanSelf()
		parts[i] = fmt.Sprintf("%s %.1f", n, st[n].meanSelf())
	}
	coverage := sum / perAccessNs
	rep.check("layer self times cover an access", coverage >= 1-coverageBand && coverage <= 1+coverageBand,
		"%s ns = %.1f%% of the %.1f ns per access of the traced passes (%d sampled)",
		strings.Join(parts, " + "), 100*coverage, perAccessNs, st["bench.access"].countOrZero())
	return coverage
}

// replayLayers takes the per-layer metrics of a traced replay run;
// perAccessNs is the traced passes' elapsed time per access.
func replayLayers(cfg config, rep *report, g genTrace, sp *replaySpans, first pass, perAccessNs float64) error {
	rec := sp.rec
	st := rec.stats()
	rep.metric("trace.read_ns", st["trace.read"].meanSelf(), "ns")
	rep.metric("molecular.access_ns", st["molecular.access"].meanSelf(), "ns")
	rep.metric("resize.tick_ns", st["resize.tick"].meanSelf(), "ns")
	rep.metric("bench.span_coverage_frac", checkCoverage(rep, st, perAccessNs), "fraction")

	// Counts: one more pass with a metrics registry attached.
	refs, err := trace.NewReader(bytes.NewReader(g.data))
	if err != nil {
		return err
	}
	all, err := refs.ReadAll()
	if err != nil {
		return err
	}
	sim, err := molcache.NewSimulator(replayConfig())
	if err != nil {
		return err
	}
	reg := molcache.NewRegistry()
	sim.AttachTelemetry(nil, reg)
	d := uint64(digestSeed)
	for _, r := range all {
		d = digestResult(d, sim.Access(r))
	}
	rep.check("telemetry does not perturb", d == first.digest, "digest %016x with a registry attached, %016x without", d, first.digest)
	recordCounts(rep, sim, reg)

	// obs.Collect on the replayed simulator.
	for i := 0; i < collectReps; i++ {
		rec.timed(sp.collect, uint64(i), func() { obs.Collect(sim.Cache, sim.Controller, reg) })
	}
	st = rec.stats()
	rep.metric("obs.collect_us", st["obs.collect"].meanDur()/1e3, "us")

	// Snapshot: a crash-safe checkpoint of the replayed simulator.
	cpPath := filepath.Join(cfg.dir, fmt.Sprintf("replay-%d.ckpt", os.Getpid()))
	defer os.Remove(cpPath)
	var cpMs []float64
	for i := 0; i < checkpointReps; i++ {
		var cerr error
		d := rec.timed(sp.cp, uint64(i), func() { cerr = sim.Checkpoint(cpPath) })
		if cerr != nil {
			return cerr
		}
		cpMs = append(cpMs, float64(d)/1e6)
	}
	fi, err := os.Stat(cpPath)
	if err != nil {
		return err
	}
	rep.metric("snapshot.checkpoint_ms", median(cpMs), "ms")
	rep.metric("snapshot.checkpoint_bytes", float64(fi.Size()), "B")

	// Shard: the plain serial Access loop against
	// Sharded(GOMAXPROCS).AccessBatch over the same refs and batches.
	if len(all) > cfg.size.shardRefs {
		all = all[:cfg.size.shardRefs]
	}
	base, err := molcache.NewSimulator(replayConfig())
	if err != nil {
		return err
	}
	sharded, err := molcache.NewSimulator(replayConfig())
	if err != nil {
		return err
	}
	loopNs, batchNs, mismatch := timeShards(rec, sp.loop, sp.shard, base, sharded.Sharded(runtime.GOMAXPROCS(0)), batches(all, shardBatch), nil)
	recordShard(rep, loopNs, batchNs, len(all), mismatch)
	return rec.write(filepath.Join(cfg.dir, "spans-replay.tsv"))
}

// batches splits refs into consecutive batches of at most n.
func batches(refs []molcache.Ref, n int) [][]molcache.Ref {
	var out [][]molcache.Ref
	for len(refs) > 0 {
		k := min(n, len(refs))
		out = append(out, refs[:k])
		refs = refs[k:]
	}
	return out
}

// timeShards times the plain Access loop on base and eng.AccessBatch
// over the same batches, spanning every stride-th batch, and returns
// both total times and the number of batches whose Results differ.
// With want set, the sharded Results are also compared with want.
func timeShards(rec *recorder, loopName, shardName uint16, base *molcache.Simulator, eng *molcache.ShardedEngine,
	bs [][]molcache.Ref, want [][]molcache.AccessResult) (loopNs, batchNs float64, mismatch int) {
	every := stride(len(bs))
	digests := make([]uint64, len(bs))
	var loopSum int64
	for i, b := range bs {
		t0 := rec.now()
		d := uint64(digestSeed)
		for _, r := range b {
			d = digestResult(d, base.Access(r))
		}
		t1 := rec.now()
		loopSum += t1 - t0
		if i%every == 0 && rec.room(1) {
			rec.add(loopName, uint64(i), -1, t0, t1)
		}
		digests[i] = d
	}
	var batchSum int64
	for i, b := range bs {
		t0 := rec.now()
		res := eng.AccessBatch(b)
		t1 := rec.now()
		batchSum += t1 - t0
		if i%every == 0 && rec.room(1) {
			rec.add(shardName, uint64(i), -1, t0, t1)
		}
		d := uint64(digestSeed)
		for j, r := range res {
			d = digestResult(d, r)
			if want != nil && r != want[i][j] {
				mismatch++
				break
			}
		}
		if d != digests[i] {
			mismatch++
		}
	}
	return float64(loopSum), float64(batchSum), mismatch
}

// recordShard reports the shard metrics and the identity check.
func recordShard(rep *report, loopNs, batchNs float64, n, mismatch int) {
	rep.metric("shard.batch_ns_per_access", batchNs/float64(n), "ns")
	rep.metric("shard.speedup_vs_access_loop", loopNs/batchNs, "ratio")
	rep.check("sharded Results identical", mismatch == 0, "%d accesses at %d shards: serial loop %.1f ns/access, sharded AccessBatch %.1f ns/access, %d batches differ",
		n, runtime.GOMAXPROCS(0), loopNs/float64(n), batchNs/float64(n), mismatch)
}

// recordCounts reports the molecular and resize counts of a simulator
// with a registry attached.
func recordCounts(rep *report, sim *molcache.Simulator, reg *molcache.Registry) {
	snap := reg.AtomicSnapshot()
	led := sim.Cache.Ledger()
	hits := float64(led.Total.Hits)
	rep.metric("molecular.hit_rate", hits/float64(led.Total.Accesses()), "fraction")
	rep.metric("molecular.remote_frac", ratio(float64(snap.Counters["molcache_molecular_remote_tile_hits_total"]), hits), "fraction")
	rep.metric("molecular.index_hit_rate", ratio(float64(snap.Counters["molcache_index_hits_total"]), float64(snap.Counters["molcache_index_lookups_total"])), "fraction")
	rep.metric("resize.decisions", float64(sim.Controller.DecisionCount()), "count")
	moved := 0
	for _, e := range sim.Controller.Events() {
		moved += max(e.Delta, -e.Delta)
	}
	rep.metric("resize.molecules_moved", float64(moved), "count")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replayHeldOut runs replay's checks on the held-out seed: the trace is
// generated twice and must encode identically, and two complete
// replays must agree with each other and with earlier runs.
func replayHeldOut(cfg config, rep *report) error {
	seed := cfg.heldOutSeed()
	g, err := generateTrace(seed, cfg.size.heldOutProcRefs)
	if err != nil {
		return err
	}
	again, err := generateTrace(seed, cfg.size.heldOutProcRefs)
	if err != nil {
		return err
	}
	rep.check("setup deterministic", bytes.Equal(g.data, again.data),
		"held-out trace of %d L2 refs generated twice", g.l2Refs)
	never := time.Now().Add(24 * time.Hour)
	var lat latencies
	a := replayPass(g.data, never, &lat)
	b := replayPass(g.data, never, &lat)
	ok := checkPass(rep, "held-out pass 1", a, g.l2Refs, a.digest) && checkPass(rep, "held-out pass 2", b, g.l2Refs, a.digest)
	rep.attempted += a.accesses + b.accesses
	if !ok {
		rep.failed += a.accesses + b.accesses
	}
	same, detail, err := digestFile(cfg.dir, fmt.Sprintf("replay-seed%d-refs%d", seed, cfg.size.heldOutProcRefs), a.digest, g.l2Refs)
	if err != nil {
		return err
	}
	rep.check("held-out seed", ok && same, "seed %d: %d refs twice; %s", seed, g.l2Refs, detail)
	return nil
}
