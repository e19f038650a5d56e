package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the tests hold the
// benchmark to.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTablesMatchBenchmarkFile holds the Go metric tables and workload
// set to BENCHMARK.json.
func TestTablesMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, the program has %s", got, want)
	}
	check := func(kind string, file []metricSpec, table []metricSpec) {
		if len(file) != len(table) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the table %d", kind, len(file), len(table))
		}
		for i := range file {
			if i < len(table) && file[i] != table[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %v, table %v", kind, i, file[i], table[i])
			}
		}
	}
	var e2e, layer []metricSpec
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
	}
	for _, m := range b.PerLayer {
		layer = append(layer, metricSpec{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}

// tinyRun runs one workload at the tiny size.
func tinyRun(t *testing.T, workload string, traced bool) *report {
	t.Helper()
	cfg := config{
		workload: workload, seed: 3, seconds: 0.4, trace: traced,
		dir: t.TempDir(), size: tinySize,
	}
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestTinyRuns runs every workload untraced and traced at the tiny size
// and asserts that every named metric appears with its unit and that
// every check passes. The open-loop generator's schedule check and the
// replay span coverage check are timing-dependent on a loaded machine,
// and the tiny size samples only a few hundred accesses, so they are
// logged, not asserted.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkFile(t)
	for _, w := range workloadNames() {
		for _, traced := range []bool{false, true} {
			rep := tinyRun(t, w, traced)
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(rep.metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, traced, len(rep.metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w, traced, m.Name, got, ok, m.Unit)
				}
			}
			for _, c := range rep.checks {
				if c.ok {
					continue
				}
				if strings.HasSuffix(c.name, "generator on schedule") || c.name == "layer self times cover an access" {
					t.Logf("%s trace=%v: %s: %s", w, traced, c.name, c.detail)
					continue
				}
				t.Errorf("%s trace=%v: check %s failed: %s", w, traced, c.name, c.detail)
			}
			if rep.attempted < 1 || rep.failed != 0 {
				t.Errorf("%s trace=%v: %d attempted, %d failed", w, traced, rep.attempted, rep.failed)
			}
		}
	}
}

// failedChecks returns the names of the failed checks.
func failedChecks(rep *report) []string {
	var out []string
	for _, c := range rep.checks {
		if !c.ok {
			out = append(out, c.name)
		}
	}
	return out
}

// replyClient is a client whose replies come from a string.
func replyClient(replies string, valueLen int) *client {
	c := &client{id: 1, tenants: pipeTenant, keyNames: []string{"c1-0"}, valueLen: valueLen}
	c.br = bufio.NewReader(strings.NewReader(replies))
	return c
}

// TestWrongValueTrips feeds readReply a GET reply whose value differs
// from the one the connection set by one byte.
func TestWrongValueTrips(t *testing.T) {
	const n = 64
	want := appendValue(nil, 1, 0, 0, 7, n)
	get := pending{verb: opGet, version: 7}

	c := replyClient("VALUE HIT 64\r\n"+string(want)+"\r\n", n)
	if ok, err := c.readReply(&get); !ok || err != nil {
		t.Fatalf("the value the connection set: ok=%v err=%v", ok, err)
	}
	bad := append([]byte(nil), want...)
	bad[n/2] ^= 1
	c = replyClient("VALUE MISS 64\r\n"+string(bad)+"\r\n", n)
	if ok, err := c.readReply(&get); ok || err != nil {
		t.Fatalf("a value off by one bit passed: ok=%v err=%v", ok, err)
	}
	c = replyClient("NOTFOUND\r\n", n)
	if ok, _ := c.readReply(&get); ok {
		t.Fatal("NOTFOUND for a key the connection set passed")
	}
	c = replyClient("DELETED HIT\r\n", n)
	if ok, _ := c.readReply(&pending{verb: opDel}); ok {
		t.Fatal("DELETED for a key the connection never set passed")
	}
	c = replyClient("STORED SOMETIMES\r\n", n)
	if _, err := c.readReply(&pending{verb: opSet}); err == nil {
		t.Fatal("a malformed reply parsed")
	}
}

// TestFlippedJournalByteTrips serves a tiny window, then flips one byte
// in the journal the server wrote and runs the journal checks again.
func TestFlippedJournalByteTrips(t *testing.T) {
	sz := tinySize
	in, err := boot(pipelinedKind, t.TempDir(), 5, sz)
	if err != nil {
		t.Fatal(err)
	}
	w := in.run(0.2, 0, false, 0)
	rep := newReport(config{})
	checkWindow(rep, "", w)
	s, err := in.finish(rep, "")
	if err != nil {
		t.Fatal(err)
	}
	if failed := failedChecks(rep); len(failed) > 0 {
		t.Fatalf("clean journal failed %v", failed)
	}
	data, err := os.ReadFile(in.cfg.JournalPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(in.cfg.JournalPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep = newReport(config{})
	checkServed(rep, "", in.cfg, &s)
	if failed := failedChecks(rep); len(failed) != 1 || failed[0] != "journal replays" {
		t.Fatalf("flipped journal byte: failed checks %v, want [journal replays]", failed)
	}
}

// TestLedgerMismatchTrips checks a replay whose ledger disagrees with
// the refs replayed, and one whose digest differs from the reference.
func TestLedgerMismatchTrips(t *testing.T) {
	g, err := generateTrace(9, tinySize.heldOutProcRefs)
	if err != nil {
		t.Fatal(err)
	}
	var lat latencies
	p := replayPass(g.data, time.Now().Add(time.Hour), &lat)
	rep := newReport(config{})
	if !checkPass(rep, "clean", p, g.l2Refs, p.digest) {
		t.Fatalf("clean replay failed %v", failedChecks(rep))
	}
	short := p
	short.accesses--
	short.complete = false
	rep = newReport(config{})
	if checkPass(rep, "short", short, g.l2Refs, p.digest) {
		t.Fatal("a ledger counting one more access than replayed passed")
	}
	if failed := failedChecks(rep); len(failed) != 1 || failed[0] != "short ledger" {
		t.Fatalf("ledger mismatch: failed checks %v", failed)
	}
	rep = newReport(config{})
	if checkPass(rep, "other", p, g.l2Refs, p.digest^1) {
		t.Fatal("a replay with another digest passed")
	}
}

// TestMissingLayerTrips takes the spans of a traced replay pass and
// drops the molecular layer's: its self times no longer cover the
// pass's time per access.
func TestMissingLayerTrips(t *testing.T) {
	g, err := generateTrace(9, tinySize.heldOutProcRefs)
	if err != nil {
		t.Fatal(err)
	}
	sp := newReplaySpans(tinySize.spanLimit)
	p := tracedPass(g.data, time.Now().Add(time.Hour), sp, 1)
	if p.err != nil || !p.complete {
		t.Fatalf("traced pass: %v", p.err)
	}
	perAccess := float64(p.elapsed) / float64(p.accesses)
	st := sp.rec.stats()
	full := checkCoverage(newReport(config{}), st, perAccess)
	delete(st, "molecular.access")
	rep := newReport(config{})
	partial := checkCoverage(rep, st, perAccess)
	if failed := failedChecks(rep); len(failed) != 1 || partial >= full {
		t.Fatalf("without molecular.access: coverage %.3f (with it %.3f), failed checks %v", partial, full, failed)
	}
}

// TestDigestAcrossRuns records a digest, matches it, and trips on
// another.
func TestDigestAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	for i, c := range []struct {
		digest uint64
		ok     bool
	}{{7, true}, {7, true}, {8, false}} {
		ok, detail, err := digestFile(dir, "seed1", c.digest, 100)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok {
			t.Errorf("run %d, digest %d: ok %v (%s), want %v", i+1, c.digest, ok, detail, c.ok)
		}
	}
}

// TestSelfTime checks self time against hand-computed intervals: a
// parent of 100 ns with overlapping children covering 10-40 and 30-60
// and a child sticking out past its end, with a clock cost of 2 ns
// taken off each leaf.
func TestSelfTime(t *testing.T) {
	r := newRecorder(16)
	r.clockNs = 2
	p, c := r.name("parent"), r.name("child")
	root := r.add(p, 1, -1, 0, 100)
	r.add(c, 1, root, 10, 40)
	r.add(c, 1, root, 30, 60)
	r.add(c, 1, root, 90, 120)
	st := r.stats()
	if got := st["parent"].meanSelf(); got != 100-50-10 {
		t.Errorf("parent self time %v, want 40", got)
	}
	if got := st["child"].count; got != 3 {
		t.Errorf("%d child spans, want 3", got)
	}
	if got := st["child"].meanSelf(); got != 30-2 {
		t.Errorf("child self time %v, want 28", got)
	}
}

// TestSliced checks the latency statistics on a stream with one stalled
// run of samples.
func TestSliced(t *testing.T) {
	var l latencies
	for i := 0; i < 5*sliceSamples; i++ {
		us := float64(i%100 + 1)
		if i < sliceSamples {
			us *= 1000 // the first run of samples is stalled
		}
		l.add(us)
	}
	p50, p99, n := l.sliced()
	if n != 5 || p50 != 50 || p99 != 99 {
		t.Errorf("sliced = p50 %v p99 %v over %d runs, want 50, 99 over 5", p50, p99, n)
	}
	if got := stride(3 * layerSpans); got != 3 {
		t.Errorf("stride(%d) = %d, want 3", 3*layerSpans, got)
	}
	var c perSecond
	for _, at := range []int64{0, 1, 2e9, 2e9 + 1, 2e9 + 2} {
		c.add(at)
	}
	if got := c.rate(3); got != 2 {
		t.Errorf("per-second median %v, want 2", got)
	}
}
