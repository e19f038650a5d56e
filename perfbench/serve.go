package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"molcache"
	"molcache/internal/addr"
	"molcache/internal/molecular"
	"molcache/internal/obs"
	"molcache/internal/resize"
	"molcache/internal/rng"
	"molcache/internal/server"
	"molcache/internal/telemetry"
)

const (
	// conns is the number of load connections (nproc on the reference
	// box, so the load never needs more connections than CPUs).
	conns = 2
	// pipeDepth is serve_pipelined's requests in flight per connection.
	pipeDepth = 32
	// pipeValueLen and mixedValueLen are the value sizes.
	pipeValueLen  = 64
	mixedValueLen = 1024
	// defaultMixedRate is serve_mixed's offered load in requests per
	// second: low enough that the generator keeps its schedule at
	// mixedProcs when the reference box stalls and runs at half speed
	// (see README.md).
	defaultMixedRate = 10000
	// mixedProcs is the GOMAXPROCS serve_mixed's windows run at. With
	// one P the generator, the server and the reply readers hand each
	// request on without waking another thread, so a request's latency
	// is its CPU work plus one wake-up of the generator's timer; with
	// more, every hand-off can wake an idle CPU, and what such wake-ups
	// cost follows the host's load more than the program.
	mixedProcs = 1
	// mixedLimit and pipeLimit are the latency limits goodput counts
	// replies within.
	mixedLimit = time.Millisecond
	pipeLimit  = 20 * time.Millisecond
	// lagBound invalidates a serve_mixed run whose generator sent more
	// than one request in ten later than this behind its due time.
	lagBound = time.Millisecond
	// recordLimit bounds the request bytes a traced run keeps per
	// connection for the decode timing.
	recordLimit = 16 << 20
	// drainGrace bounds how long replies may trail the window.
	drainGrace = 10 * time.Second
)

// pipeTenant is serve_pipelined's single tenant, at molcached's default
// goal.
var pipeTenant = []tenantSpec{{name: "pipe", goal: 0.2}}

// mixedTenants are serve_mixed's four tenants.
var mixedTenants = []tenantSpec{
	{name: "goal05", goal: 0.05, lineFactor: 1},
	{name: "goal10", goal: 0.10, lineFactor: 1},
	{name: "goal20", goal: 0.20, lineFactor: 2},
	{name: "goal30", goal: 0.30, lineFactor: 4},
}

// serveKind describes one serve workload.
type serveKind struct {
	name       string
	tenants    []tenantSpec
	valueLen   int
	keys       func(sizing) int
	preload    bool
	checkpoint bool
	mixed      bool
	limit      time.Duration
}

var pipelinedKind = serveKind{
	name: "serve_pipelined", tenants: pipeTenant, valueLen: pipeValueLen,
	keys: func(s sizing) int { return s.pipeKeys }, preload: true, limit: pipeLimit,
}

var mixedKind = serveKind{
	name: "serve_mixed", tenants: mixedTenants, valueLen: mixedValueLen,
	keys: func(s sizing) int { return s.mixedKeys }, checkpoint: true, mixed: true, limit: mixedLimit,
}

// serverConfig is molcached's default configuration (1 MB molecular
// cache of 4 clusters x 2 tiles, Randy, seed 2006, goal 0.2, one shard)
// with the journal on, the obs plane mounted for its /metrics page and,
// for serve_mixed, a checkpoint path.
func serverConfig(dir string, checkpoint bool) server.Config {
	cfg := server.Config{
		Listen:    "127.0.0.1:0",
		ObsListen: "127.0.0.1:0",
		Molecular: molecular.Config{
			TotalSize:       addr.MB,
			Clusters:        4,
			TilesPerCluster: 2,
			Policy:          molecular.RandyReplacement,
			Seed:            2006,
		},
		Resize:      resize.Config{DefaultGoal: 0.2},
		JournalPath: filepath.Join(dir, "journal.molc"),
	}
	if checkpoint {
		cfg.CheckpointPath = filepath.Join(dir, "molcached.ckpt")
	}
	return cfg
}

// instance is a booted server with its load connections.
type instance struct {
	kind    serveKind
	dir     string
	cfg     server.Config
	srv     *server.Server
	clients []*client
	gens    []*opGen
	// setupAccesses counts the accesses set-up admitted; later journal
	// batches belong to the window.
	setupAccesses uint64
}

// boot starts a server, connects the load connections, registers the
// tenants and, for serve_pipelined, preloads every key.
func boot(kind serveKind, base string, seed uint64, sz sizing) (*instance, error) {
	dir, err := os.MkdirTemp(base, kind.name+"-")
	if err != nil {
		return nil, err
	}
	in := &instance{kind: kind, dir: dir, cfg: serverConfig(dir, kind.checkpoint)}
	if in.srv, err = server.New(in.cfg); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	keys := kind.keys(sz)
	for i := 0; i < conns; i++ {
		c, err := dialClient(in.srv.Addr(), i, kind.tenants, keys, kind.valueLen)
		if err != nil {
			in.abort()
			return nil, err
		}
		in.clients = append(in.clients, c)
		in.gens = append(in.gens, &opGen{src: rng.New(rng.DeriveSeed(seed, uint64(i))), keys: keys, tenants: len(kind.tenants), mixed: kind.mixed})
	}
	for _, t := range kind.tenants {
		if err := in.clients[0].tenant(t); err != nil {
			in.abort()
			return nil, err
		}
	}
	if kind.preload {
		for _, c := range in.clients {
			if err := c.preload(); err != nil {
				in.abort()
				return nil, err
			}
			in.setupAccesses += uint64(len(c.keyNames))
		}
	}
	return in, nil
}

// preload SETs every key of tenant 0, pipelineDepth at a time.
func (c *client) preload() error {
	for k := 0; k < len(c.keyNames); k += pipeDepth {
		var ps []pending
		for j := k; j < min(k+pipeDepth, len(c.keyNames)); j++ {
			p := pending{verb: opSet, key: int32(j)}
			if err := c.send(&p); err != nil {
				return err
			}
			ps = append(ps, p)
		}
		if err := c.bw.Flush(); err != nil {
			return err
		}
		for i := range ps {
			ok, err := c.readReply(&ps[i])
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("preload: SET %s refused", c.keyNames[ps[i].key])
			}
		}
	}
	return nil
}

// abort tears a half-booted instance down.
func (in *instance) abort() {
	for _, c := range in.clients {
		c.conn.Close()
	}
	in.srv.Close()
	os.RemoveAll(in.dir)
}

// window is one measured stretch of load.
type window struct {
	elapsed time.Duration
	connStats
	reads      int64
	allocBytes uint64
	rec        *recorder
	reqName    uint16
}

// run drives the instance's load for seconds and returns the window.
// The open loop offers rate requests per second; the closed loop keeps
// pipeDepth requests in flight per connection.
func (in *instance) run(seconds, rate float64, traced bool, spanLimit int) window {
	w := window{rec: newRecorder(spanLimit)}
	w.reqName = w.rec.name("bench.request")
	if traced {
		for _, c := range in.clients {
			c.record(recordLimit)
		}
	}
	if in.kind.mixed {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(mixedProcs))
	}
	runtime.GC()
	reads0 := int64(0)
	for _, c := range in.clients {
		reads0 += c.reads
		c.conn.SetDeadline(time.Now().Add(time.Duration(seconds*float64(time.Second)) + drainGrace))
	}
	a0 := totalAlloc()
	start := w.rec.now()
	deadline := start + int64(seconds*float64(time.Second))
	limit := int64(in.kind.limit)
	stats := make([]connStats, len(in.clients))
	recs := make([]*recorder, len(in.clients))
	var wg sync.WaitGroup
	if in.kind.mixed {
		chans := make([]chan pending, len(in.clients))
		for i, c := range in.clients {
			// Sized so the generator never blocks on a reader at the
			// offered rate: replies trail requests by far less than a
			// second's worth of requests.
			//molvet:ignore concurrency the generator hands each connection's in-flight requests to that connection's reply reader
			chans[i] = make(chan pending, 1<<15)
			recs[i] = w.rec.fork(spanLimit / 8)
			wg.Add(1)
			//molvet:ignore concurrency one reply reader per load connection; run waits for each before returning
			go func(i int, c *client) {
				defer wg.Done()
				stats[i] = c.drain(chans[i], recs[i], w.reqName, traced, start, limit)
			}(i, c)
		}
		gen := in.generate(chans, rate, start, deadline, w.rec)
		for _, ch := range chans {
			close(ch)
		}
		wg.Wait()
		w.lag = gen.lag
		w.sent = gen.sent
		w.failed += gen.failed
		if gen.err != nil {
			w.err = gen.err
		}
	} else {
		for i, c := range in.clients {
			recs[i] = w.rec.fork(spanLimit / 8)
			wg.Add(1)
			//molvet:ignore concurrency one closed-loop goroutine per load connection; run waits for each before returning
			go func(i int, c *client) {
				defer wg.Done()
				stats[i] = c.closedLoop(in.gens[i], pipeDepth, recs[i], w.reqName, traced, start, deadline, limit)
			}(i, c)
		}
		wg.Wait()
	}
	end := w.rec.now()
	w.allocBytes = totalAlloc() - a0
	w.elapsed = time.Duration(max(end, deadline) - start)
	for i, st := range stats {
		w.rec.merge(recs[i])
		w.sent += st.sent
		w.replies += st.replies
		w.good += st.good
		w.failed += st.failed
		w.lat.merge(st.lat)
		w.replySec.merge(st.replySec)
		w.goodSec.merge(st.goodSec)
		if st.err != nil && w.err == nil {
			w.err = st.err
		}
	}
	for _, c := range in.clients {
		w.reads += c.reads
	}
	w.reads -= reads0
	return w
}

// generate is serve_mixed's open-loop generator. It walks one schedule
// of evenly spaced due times, alternating connections, sends each
// request at its due time (or at once when behind) and records how late
// it was sent.
func (in *instance) generate(chans []chan pending, rate float64, start, deadline int64, clk *recorder) connStats {
	var st connStats
	pc, err := newPacer()
	if err != nil {
		st.err = err
		return st
	}
	defer pc.f.Close()
	interval := float64(time.Second) / rate
	for i := 0; ; i++ {
		due := start + int64(float64(i)*interval)
		if due >= deadline {
			break
		}
		if err := pc.until(clk, due); err != nil {
			st.err = err
			break
		}
		k := i % len(in.clients)
		c := in.clients[k]
		p := pending{due: due}
		in.gens[k].next(&p)
		err := c.send(&p)
		if err == nil {
			err = c.bw.Flush()
		}
		st.lag = append(st.lag, float64(clk.now()-due)/1e3)
		st.sent++
		if err != nil {
			st.err = err
			st.failed++
			break
		}
		chans[k] <- p
	}
	return st
}

// served is what finish learns about a server after its window.
type served struct {
	counters  map[string]uint64
	shutdown  time.Duration
	ckptBytes int64
	sim       *molcache.Simulator
	reg       *telemetry.Registry
}

// finish closes the load connections, shuts the server down (timing
// Shutdown, which writes serve_mixed's checkpoint), reads its final
// /metrics page and runs the serving checks under label:
//   - the server shut down cleanly;
//   - server.ReplayJournalFile replays the journal, recomputing every
//     journaled Result, and counts as many accesses as the server's
//     molcache_server_accesses_total;
//   - the journal error count is 0;
//   - serve_mixed's checkpoint was written.
func (in *instance) finish(rep *report, label string) (served, error) {
	var s served
	for _, c := range in.clients {
		c.conn.Close()
	}
	t0 := time.Now()
	err := in.srv.Shutdown()
	s.shutdown = time.Since(t0)
	rep.check(label+"shutdown", err == nil, "Server.Shutdown: %v", err)
	s.counters, err = fetchCounters(in.srv.ObsURL() + "/metrics")
	if cerr := in.srv.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return s, err
	}
	s.sim, s.reg = in.srv.Sim(), in.srv.Registry()
	checkServed(rep, label, in.cfg, &s)
	return s, nil
}

// checkServed runs the journal and checkpoint checks of a shut-down
// server.
func checkServed(rep *report, label string, cfg server.Config, s *served) {
	accesses := s.counters["molcache_server_accesses_total"]
	replay, err := server.ReplayJournalFile(cfg.JournalPath, server.ReplayOptions{})
	switch {
	case err != nil:
		rep.check(label+"journal replays", false, "%v", err)
	default:
		rep.check(label+"journal replays", replay.Accesses == accesses,
			"every journaled Result recomputed; journal has %d accesses, molcache_server_accesses_total %d", replay.Accesses, accesses)
	}
	jerr := s.counters["molcache_server_journal_errors_total"]
	rep.check(label+"journal errors", jerr == 0, "molcache_server_journal_errors_total = %d", jerr)
	if cfg.CheckpointPath != "" {
		fi, err := os.Stat(cfg.CheckpointPath)
		ok := err == nil && fi.Size() > 0
		if ok {
			s.ckptBytes = fi.Size()
		}
		rep.check(label+"checkpoint", ok, "written by Shutdown: %v", err)
	}
}

// fetchCounters reads a Prometheus page's counters.
func fetchCounters(url string) (map[string]uint64, error) {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr, Timeout: 5 * time.Second}).Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	snap, err := molcache.ParseMetricsPrometheus(resp.Body)
	if err != nil {
		return nil, err
	}
	return snap.Counters, nil
}

// checkWindow accounts a window's requests and checks them: every
// request got a well-formed reply, and every reply was the one the
// connection's own history allows.
func checkWindow(rep *report, label string, w window) {
	rep.attempted += w.sent
	rep.failed += w.failed
	rep.check(label+"replies", w.err == nil && w.failed == 0 && w.replies == w.sent,
		"%d sent, %d replies, %d failed (wrong value, ERR or lost); stream error: %v", w.sent, w.replies, w.failed, w.err)
}

func runPipelined(cfg config, rep *report) error { return runServe(cfg, rep, pipelinedKind) }

func runMixed(cfg config, rep *report) error { return runServe(cfg, rep, mixedKind) }

func runServe(cfg config, rep *report, kind serveKind) error {
	// Set-up: boot, connect, register and preload, several times over;
	// the last instance carries the window.
	var setupSecs []float64
	var in *instance
	for i := 0; i < cfg.size.serveSetups; i++ {
		start := time.Now()
		var err error
		if in, err = boot(kind, cfg.dir, cfg.seed, cfg.size); err != nil {
			return err
		}
		setupSecs = append(setupSecs, time.Since(start).Seconds())
		if i < cfg.size.serveSetups-1 {
			in.abort()
			// Collect the aborted instance, so its garbage neither
			// sets the peak RSS the window reports nor runs into the
			// next boot's timing.
			runtime.GC()
		}
	}
	defer os.RemoveAll(in.dir)

	// The measured window; a traced run measures half of it untraced
	// on this instance and half traced on a fresh one, so both halves
	// start from the same state.
	seconds, label := cfg.seconds, ""
	if cfg.trace {
		seconds, label = cfg.seconds/2, "untraced "
	}
	w := in.run(seconds, defaultMixedRate, false, 0)
	rss := rssPeakMiB()
	checkWindow(rep, label, w)
	s, err := in.finish(rep, label)
	if err != nil {
		return err
	}
	if kind.mixed {
		checkLag(rep, label, w)
	}
	p50, p99, slices := w.lat.sliced()
	rep.metric("setup_s", median(setupSecs), "s")
	throughput := w.replySec.rate(seconds)
	if kind.mixed {
		// The open loop's replies per whole second are the offered
		// rate, an integer nearly every run; the achieved rate is the
		// replies over the window, the drain included.
		throughput = float64(w.replies) / w.elapsed.Seconds()
	}
	rep.metric("throughput_ops_per_s", throughput, "ops/s")
	rep.metric("latency_p50_us", p50, "us")
	rep.metric("latency_p99_us", p99, "us")
	rep.metric("goodput_ops_per_s", w.goodSec.rate(seconds), "ops/s")
	rep.metric("alloc_bytes_per_op", float64(w.allocBytes)/float64(w.replies), "B/op")
	rep.metric("rss_peak_mb", rss, "MiB")
	recordSims(rep, []simSummary{summarizeSim(s.sim, tenantGoals(kind.tenants))})
	rep.note("latency from %s: median over %d runs of %d requests p50 %.4g p99 %.4g us; whole window %s us",
		map[bool]string{true: "due time", false: "queue time"}[kind.mixed], slices, sliceSamples, p50, p99, summarize(w.lat.all()))
	rep.note("setup_s samples %v; replies per second %v", setupSecs, w.replySec)
	if cfg.trace {
		tin, err := boot(kind, cfg.dir, cfg.seed, cfg.size)
		if err != nil {
			return err
		}
		defer os.RemoveAll(tin.dir)
		tw := tin.run(seconds, defaultMixedRate, true, cfg.size.spanLimit)
		checkWindow(rep, "traced ", tw)
		ts, err := tin.finish(rep, "traced ")
		if err != nil {
			return err
		}
		if kind.mixed {
			checkLag(rep, "traced ", tw)
			rep.metric("bench.generator_lag_p99_us", summarize(append([]float64(nil), tw.lag...)).p99, "us")
		}
		plainRate, tracedRate := w.replySec.rate(seconds), tw.replySec.rate(seconds)
		rep.metric("bench.trace_overhead_frac", 1-tracedRate/plainRate, "fraction")
		rep.note("untraced %.0f replies/s, traced %.0f replies/s", plainRate, tracedRate)
		if err := serveLayers(cfg, rep, tin, tw, ts); err != nil {
			return err
		}
	}
	return serveHeldOut(cfg, rep, kind)
}

// checkLag invalidates an open-loop window whose generator fell behind
// its schedule: more than one request in ten sent over lagBound late.
// Single stalls of the box are shown in the lag's tail but do not
// invalidate the run.
func checkLag(rep *report, label string, w window) {
	lags := append([]float64(nil), w.lag...)
	lt := summarize(lags)
	p90 := quantile(lags, 0.9)
	rep.check(label+"generator on schedule", p90 <= float64(lagBound)/1e3,
		"send lag behind the due time p90 %.4g, %s us; bound p90 <= %.0f us", p90, lt, float64(lagBound)/1e3)
}

// tenantGoals maps the tenants' ASIDs, assigned in registration order,
// to their goals.
func tenantGoals(tenants []tenantSpec) molcache.Goals {
	goals := molcache.Goals{}
	for i, t := range tenants {
		goals[uint16(i+1)] = t.goal
	}
	return goals
}

// simSummary is what the sim_* metrics need of one simulator.
type simSummary struct{ accesses, misses, probes, deviation float64 }

func summarizeSim(sim *molcache.Simulator, goals molcache.Goals) simSummary {
	led := sim.Cache.Ledger()
	n := float64(led.Total.Accesses())
	return simSummary{
		accesses:  n,
		misses:    n - float64(led.Total.Hits),
		probes:    n * sim.Cache.AverageProbes(),
		deviation: molcache.AverageDeviation(led, goals),
	}
}

// recordSims reports the sim_* metrics of simulators: the miss rate and
// probes per access over all their accesses, and the mean of their
// average deviations.
func recordSims(rep *report, sims []simSummary) {
	var total simSummary
	for _, s := range sims {
		total.accesses += s.accesses
		total.misses += s.misses
		total.probes += s.probes
		total.deviation += s.deviation
	}
	rep.metric("sim_miss_rate", total.misses/total.accesses, "fraction")
	rep.metric("sim_deviation", total.deviation/float64(len(sims)), "fraction")
	rep.metric("sim_probes_per_access", total.probes/total.accesses, "molecules")
}

// serveHeldOut runs the serving checks once more on the held-out seed.
func serveHeldOut(cfg config, rep *report, kind serveKind) error {
	in, err := boot(kind, cfg.dir, cfg.heldOutSeed(), cfg.size)
	if err != nil {
		return err
	}
	defer os.RemoveAll(in.dir)
	w := in.run(cfg.size.heldOutSeconds, defaultMixedRate, false, 0)
	checkWindow(rep, "held-out ", w)
	_, err = in.finish(rep, "held-out ")
	return err
}

// serveLayers takes the per-layer metrics of a traced serve window. The
// server is not instrumented; each layer is timed by replaying what the
// window produced through that layer's public API: the exact request
// bytes through server.ReadRequest, the journal's batch frames through
// a fresh simulator and through Journal.Batch.
func serveLayers(cfg config, rep *report, in *instance, w window, s served) error {
	rec := w.rec
	names := struct{ decode, batch, mol, tick, detail, journal, loop, shard, collect, cp uint16 }{
		rec.name("server.decode"), rec.name("server.sim_batch"), rec.name("molecular.access"),
		rec.name("resize.tick"), rec.name("bench.batch"), rec.name("server.journal_batch"),
		rec.name("bench.access_loop"), rec.name("shard.batch"), rec.name("obs.collect"),
		rec.name("snapshot.checkpoint"),
	}

	// Decode: the bytes each connection sent, through ReadRequest.
	decodes, every := 0, stride(int(w.sent))
	for _, c := range in.clients {
		br := bufio.NewReaderSize(bytes.NewReader(c.rec), 64<<10)
		for id := uint64(c.id)<<40 | c.recFirst; ; id++ {
			t0 := rec.now()
			_, err := server.ReadRequest(br)
			t1 := rec.now()
			if err != nil {
				break
			}
			decodes++
			if decodes%every == 0 && rec.room(1) {
				rec.add(names.decode, id, -1, t0, t1)
			}
		}
	}

	jcfg, frames, err := server.ReadJournalFile(in.cfg.JournalPath)
	if err != nil {
		return err
	}
	newSim := func() (*molcache.Simulator, error) {
		sim, err := molcache.NewSimulator(jcfg.Molecular, jcfg.Resize)
		if err != nil {
			return nil, err
		}
		sim.AttachTelemetry(telemetry.NewTracer(jcfg.EventRing), telemetry.NewRegistry())
		return sim, sim.InjectFaults(jcfg.Faults)
	}
	// sims: the served engine (one shard, as molcached runs), the
	// per-access spans, the plain Access loop and the sharded engine.
	var sims [4]*molcache.Simulator
	for i := range sims {
		if sims[i], err = newSim(); err != nil {
			return err
		}
	}
	eng := sims[0].Sharded(1)
	sharded := sims[3].Sharded(runtime.GOMAXPROCS(0))
	var (
		winRefs    [][]molcache.Ref
		winResults [][]molcache.AccessResult
		mismatch   int
		accesses   int
		nWin       int
	)
	for _, f := range frames {
		if f.Batch != nil && f.Batch.First > in.setupAccesses {
			nWin++
		}
	}
	every = stride(nWin)
	for _, f := range frames {
		switch {
		case f.Tenant != nil:
			for _, sim := range sims {
				if err := applyTenant(sim, f.Tenant); err != nil {
					return err
				}
			}
		case f.Batch != nil:
			b := f.Batch
			if b.First <= in.setupAccesses {
				// Set-up traffic: brings every simulator to the window's
				// starting state, untimed.
				eng.AccessBatch(b.Refs)
				sims[1].AccessBatch(b.Refs)
				sims[2].AccessBatch(b.Refs)
				sharded.AccessBatch(b.Refs)
				continue
			}
			id := uint64(len(winRefs))
			var res []molcache.AccessResult
			if id%uint64(every) == 0 {
				rec.timed(names.batch, id, func() { res = eng.AccessBatch(b.Refs) })
				tracePerAccess(rec, names.detail, names.mol, names.tick, sims[1], b.Refs, id)
			} else {
				res = eng.AccessBatch(b.Refs)
				sims[1].AccessBatch(b.Refs)
			}
			for i := range res {
				if res[i] != b.Results[i] {
					mismatch++
					break
				}
			}
			winRefs = append(winRefs, b.Refs)
			winResults = append(winResults, b.Results)
			accesses += len(b.Refs)
		}
	}
	rep.check("journal batches recompute", mismatch == 0, "%d window batches through a fresh simulator, %d differ from the journal", len(winRefs), mismatch)

	// Shard: the served batches through the plain Access loop and
	// through Sharded(GOMAXPROCS).AccessBatch.
	loopNs, batchNs, smis := timeShards(rec, names.loop, names.shard, sims[2], sharded, winRefs, winResults)
	recordShard(rep, loopNs, batchNs, accesses, smis)

	// Journal: the frames re-written with Journal.Batch.
	jpath := filepath.Join(in.dir, "rewrite.molc")
	j, err := server.CreateJournal(jpath, jcfg)
	if err != nil {
		return err
	}
	var total uint64
	win := 0
	for _, f := range frames {
		switch {
		case f.Tenant != nil:
			if err := j.Tenant(*f.Tenant); err != nil {
				return err
			}
		case f.Batch != nil:
			total += uint64(len(f.Batch.Refs))
			if f.Batch.First > in.setupAccesses && win%every == 0 {
				rec.timed(names.journal, f.Batch.First, func() { err = j.Batch(f.Batch.Refs, f.Batch.Results) })
			} else {
				err = j.Batch(f.Batch.Refs, f.Batch.Results)
			}
			if f.Batch.First > in.setupAccesses {
				win++
			}
			if err != nil {
				return err
			}
		}
	}
	if err := j.Close(); err != nil {
		return err
	}
	fi, err := os.Stat(jpath)
	if err != nil {
		return err
	}

	// obs.Collect on the served simulator, with its registry.
	for i := 0; i < collectReps; i++ {
		rec.timed(names.collect, uint64(i), func() { obs.Collect(s.sim.Cache, s.sim.Controller, s.reg) })
	}
	// Snapshot: serve_mixed's Shutdown wrote the server checkpoint;
	// serve_pipelined has none, so the served simulator is checkpointed.
	cpMs, cpBytes := float64(s.shutdown)/1e6, float64(s.ckptBytes)
	if !in.kind.checkpoint {
		path := filepath.Join(in.dir, "sim.ckpt")
		var ms []float64
		for i := 0; i < checkpointReps; i++ {
			var cerr error
			d := rec.timed(names.cp, uint64(i), func() { cerr = s.sim.Checkpoint(path) })
			if cerr != nil {
				return cerr
			}
			ms = append(ms, float64(d)/1e6)
		}
		cfi, err := os.Stat(path)
		if err != nil {
			return err
		}
		cpMs, cpBytes = median(ms), float64(cfi.Size())
	}

	st := rec.stats()
	rtt := summarize(w.lat.all())
	decodeUs := st["server.decode"].meanSelf() / 1e3
	batchUs := st["server.sim_batch"].meanDur() / 1e3
	journalUs := st["server.journal_batch"].meanDur() / 1e3
	rep.metric("server.decode_ns", decodeUs*1e3, "ns")
	rep.metric("server.sim_batch_us", batchUs, "us")
	rep.metric("server.journal_batch_us", journalUs, "us")
	rep.metric("server.journal_bytes_per_access", float64(fi.Size())/float64(total), "B")
	rep.metric("server.unattributed_us", rtt.p50-decodeUs-batchUs-journalUs, "us")
	rep.metric("bench.span_coverage_frac", (decodeUs+batchUs+journalUs)/rtt.p50, "fraction")
	rep.metric("server.batches", float64(len(winRefs)), "count")
	rep.metric("server.batch_mean_accesses", ratio(float64(accesses), float64(len(winRefs))), "count")
	rep.metric("server.replies_per_read", ratio(float64(w.replies), float64(w.reads)), "ratio")
	rep.metric("molecular.access_ns", st["molecular.access"].meanSelf(), "ns")
	rep.metric("resize.tick_ns", st["resize.tick"].meanSelf(), "ns")
	rep.metric("obs.collect_us", st["obs.collect"].meanDur()/1e3, "us")
	rep.metric("snapshot.checkpoint_ms", cpMs, "ms")
	rep.metric("snapshot.checkpoint_bytes", cpBytes, "B")
	recordCounts(rep, s.sim, s.reg)
	rep.note("RTT p50 %.1f us = decode %.2f + sim batch %.2f + journal %.2f + unattributed %.1f (%d decodes, %d batches)",
		rtt.p50, decodeUs, batchUs, journalUs, rtt.p50-decodeUs-batchUs-journalUs, decodes, len(winRefs))
	return rec.write(filepath.Join(cfg.dir, "spans-"+in.kind.name+".tsv"))
}

// applyTenant replays one tenant frame the way server.ReplayJournal
// does.
func applyTenant(sim *molcache.Simulator, rec *server.TenantRecord) error {
	if !rec.Update {
		if _, err := sim.Cache.CreateRegion(rec.ASID, molcache.RegionOptions{
			HomeCluster: -1, HomeTile: -1, LineFactor: rec.LineFactor,
		}); err != nil {
			return err
		}
	}
	return sim.Controller.SetGoal(rec.ASID, rec.Goal)
}

// tracePerAccess replays one batch access by access, spanning
// Cache.Access and Controller.Tick under a bench.batch root, while the
// recorder has room; afterwards it replays the batch unspanned.
func tracePerAccess(rec *recorder, root, mol, tick uint16, sim *molcache.Simulator, refs []molcache.Ref, id uint64) {
	if !rec.room(1 + 2*len(refs)) {
		sim.AccessBatch(refs)
		return
	}
	r := rec.add(root, id, -1, rec.now(), 0)
	for _, ref := range refs {
		t0 := rec.now()
		sim.Cache.Access(ref)
		t1 := rec.now()
		sim.Controller.Tick()
		t2 := rec.now()
		rec.add(mol, id, r, t0, t1)
		rec.add(tick, id, r, t1, t2)
	}
	rec.spans[r].end = rec.now()
}
