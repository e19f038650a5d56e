package cmp_test

import (
	"fmt"
	"reflect"
	"testing"

	"molcache/internal/addr"
	"molcache/internal/cache"
	"molcache/internal/cmp"
	"molcache/internal/invariant"
	"molcache/internal/stats"
	"molcache/internal/workload"
)

// seqGen replays a fixed access list in a loop. panicAt, when positive,
// makes the panicAt-th draw (1-based) panic.
type seqGen struct {
	seq     []workload.Access
	pos     int
	panicAt int
}

func (g *seqGen) Name() string { return "seq" }

func (g *seqGen) Next() workload.Access {
	g.pos++
	if g.pos == g.panicAt {
		panic(fmt.Sprintf("seqGen: draw %d", g.pos))
	}
	return g.seq[(g.pos-1)%len(g.seq)]
}

// sharingSeq walks lines lines of one address space starting at line
// first, writing every writeEvery-th reference.
func sharingSeq(first, lines, writeEvery int) []workload.Access {
	var seq []workload.Access
	for i := 0; i < lines; i++ {
		seq = append(seq, workload.Access{
			Addr:  uint64(first+i) * 64,
			Write: i%writeEvery == 0,
		})
	}
	return seq
}

// build returns a fresh system over a 1 MB 4-way L2 with the cores
// add attaches.
func build(t *testing.T, add func(*cmp.System)) (*cmp.System, *cache.Cache) {
	t.Helper()
	l2 := cache.MustNew(cache.Config{Size: 1 * addr.MB, Ways: 4, LineSize: 64})
	sys := cmp.MustNew(l2, cmp.Config{CaptureL1Misses: true})
	add(sys)
	return sys, l2
}

// addMix attaches the replay mix (art, mcf, ammp, parser) as ASIDs 1-4.
func addMix(seed uint64) func(*cmp.System) {
	return func(sys *cmp.System) {
		for i, name := range []string{"art", "mcf", "ammp", "parser"} {
			asid := uint16(i + 1)
			if err := sys.AddCore(asid, workload.MustNew(name, uint64(asid)<<36, seed+uint64(asid)*1000)); err != nil {
				panic(err)
			}
		}
	}
}

// addSharingPair attaches two cores of one address space whose
// fixed sequences overlap, so lines migrate between the L1s.
func addSharingPair(sys *cmp.System) {
	for _, g := range []*seqGen{
		{seq: sharingSeq(0, 97, 3)},
		{seq: sharingSeq(40, 89, 5)},
	} {
		if err := sys.AddCore(7, g); err != nil {
			panic(err)
		}
	}
}

// ledgerState flattens a ledger into comparable form.
func ledgerState(l *stats.Ledger) map[uint16]stats.HitMiss {
	out := map[uint16]stats.HitMiss{0xffff: l.Total}
	for _, a := range l.ASIDs() {
		out[a] = l.App(a)
	}
	return out
}

// assertSame checks that two systems reached the same state.
func assertSame(t *testing.T, run, step *cmp.System, runL2, stepL2 *cache.Cache) {
	t.Helper()
	if len(run.Captured()) == 0 {
		t.Fatal("no L1 misses captured")
	}
	if !reflect.DeepEqual(run.Captured(), step.Captured()) {
		t.Errorf("captured traces differ: %d vs %d refs", len(run.Captured()), len(step.Captured()))
	}
	checks := []struct {
		what      string
		run, step any
	}{
		{"L1 ledger", ledgerState(run.L1Ledger()), ledgerState(step.L1Ledger())},
		{"L2 ledger", ledgerState(runL2.Ledger()), ledgerState(stepL2.Ledger())},
		{"coherence", run.Coherence(), step.Coherence()},
		{"directory stats", run.Directory().Stats(), step.Directory().Stats()},
		{"cycle", run.Cycle(), step.Cycle()},
		{"issued", run.Issued(), step.Issued()},
	}
	for _, a := range run.L1Ledger().ASIDs() {
		checks = append(checks, struct {
			what      string
			run, step any
		}{fmt.Sprintf("CPI of ASID %d", a), run.CoreCPI(a), step.CoreCPI(a)})
	}
	for _, c := range checks {
		if !reflect.DeepEqual(c.run, c.step) {
			t.Errorf("%s: Run %+v, Step loop %+v", c.what, c.run, c.step)
		}
	}
}

// steps issues n references one Step at a time.
func steps(sys *cmp.System, n int) {
	for i := 0; i < n; i++ {
		sys.Step()
	}
}

// TestRunMatchesStep: Run, which reads the generators ahead on another
// goroutine, reaches exactly the state a plain Step loop does.
func TestRunMatchesStep(t *testing.T) {
	t.Run("replay mix", func(t *testing.T) {
		run, runL2 := build(t, addMix(31))
		step, stepL2 := build(t, addMix(31))
		run.Run(300_000)
		steps(step, 300_000)
		assertSame(t, run, step, runL2, stepL2)
	})

	t.Run("sharing pair", func(t *testing.T) {
		run, runL2 := build(t, addSharingPair)
		step, stepL2 := build(t, addSharingPair)
		run.Run(100_000)
		steps(step, 100_000)
		assertSame(t, run, step, runL2, stepL2)
		co := run.Coherence()
		if co.Invalidations == 0 || co.Downgrades == 0 || co.Interventions == 0 {
			t.Errorf("sharing pair exercised too little of the protocol: %+v", co)
		}
		if vs := invariant.Check(invariant.CaptureSystem(run)); len(vs) != 0 {
			t.Errorf("invariant violations after Run: %v", vs)
		}
	})

	t.Run("split run", func(t *testing.T) {
		// The second Run starts with references the first one drew but
		// did not issue; Steps in between consume some of them.
		run, runL2 := build(t, addMix(32))
		step, stepL2 := build(t, addMix(32))
		run.Run(50_001)
		steps(run, 777)
		run.Run(60_000)
		steps(step, 50_001+777+60_000)
		assertSame(t, run, step, runL2, stepL2)
	})

	t.Run("shared generator", func(t *testing.T) {
		// Cores 0 and 1 draw one generator in issue order, which only
		// an inline draw reproduces; core 2 reads ahead.
		add := func(sys *cmp.System) {
			g := workload.MustNew("parser", 1<<36, 5)
			for _, c := range []struct {
				asid uint16
				gen  workload.Generator
			}{{1, g}, {1, g}, {2, workload.MustNew("mcf", 2<<36, 6)}} {
				if err := sys.AddCore(c.asid, c.gen); err != nil {
					panic(err)
				}
			}
		}
		run, runL2 := build(t, add)
		step, stepL2 := build(t, add)
		run.Run(120_000)
		steps(step, 120_000)
		assertSame(t, run, step, runL2, stepL2)
	})

	t.Run("panicking generator", func(t *testing.T) {
		// Core 0 panics on its 9000th draw. The first Run ends before
		// core 0 issues it, so the panic waits, drawn ahead, for the
		// second Run, which must raise it on this goroutine at the same
		// reference as the Step loop.
		add := func(sys *cmp.System) {
			for asid, g := range []*seqGen{
				{seq: sharingSeq(0, 300, 4), panicAt: 9000},
				{seq: sharingSeq(1000, 500, 7)},
			} {
				if err := sys.AddCore(uint16(asid+1), g); err != nil {
					panic(err)
				}
			}
		}
		run, runL2 := build(t, add)
		step, stepL2 := build(t, add)
		run.Run(12_000)
		runVal := catch(func() { run.Run(50_000) })
		stepVal := catch(func() { steps(step, 62_000) })
		if runVal == nil || runVal != stepVal {
			t.Fatalf("Run panicked with %v, Step loop with %v", runVal, stepVal)
		}
		if run.Issued() < 12_000 {
			t.Fatalf("panic raised early, after %d references", run.Issued())
		}
		assertSame(t, run, step, runL2, stepL2)
	})
}

// catch runs fn and returns the value it panicked with (nil if none).
func catch(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// valueGen is a generator of a non-comparable type: comparing two of
// them with == would panic.
type valueGen struct {
	seq []workload.Access
	pos *int
}

func (g valueGen) Name() string { return "value" }

func (g valueGen) Next() workload.Access {
	*g.pos++
	return g.seq[*g.pos%len(g.seq)]
}

// TestNonComparableGenerators: cores whose generators cannot be
// compared are attached and read ahead like any others.
func TestNonComparableGenerators(t *testing.T) {
	add := func(sys *cmp.System) {
		for asid := uint16(1); asid <= 2; asid++ {
			g := valueGen{seq: sharingSeq(int(asid)*1000, 400, 3), pos: new(int)}
			if err := sys.AddCore(asid, g); err != nil {
				panic(err)
			}
		}
	}
	run, runL2 := build(t, add)
	step, stepL2 := build(t, add)
	run.Run(40_000)
	steps(step, 40_000)
	assertSame(t, run, step, runL2, stepL2)
}
