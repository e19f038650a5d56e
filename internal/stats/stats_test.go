package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHitMissBasics(t *testing.T) {
	var h HitMiss
	if h.MissRate() != 0 || h.HitRate() != 0 {
		t.Error("empty HitMiss should report zero rates")
	}
	h.Record(true)
	h.Record(true)
	h.Record(false)
	if h.Accesses() != 3 {
		t.Errorf("Accesses = %d, want 3", h.Accesses())
	}
	if got := h.MissRate(); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("MissRate = %v, want 1/3", got)
	}
	if got := h.HitRate(); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("HitRate = %v, want 2/3", got)
	}
}

func TestHitMissAdd(t *testing.T) {
	a := HitMiss{Hits: 3, Misses: 1}
	b := HitMiss{Hits: 2, Misses: 5}
	a.Add(b)
	if a.Hits != 5 || a.Misses != 6 {
		t.Errorf("Add = %+v, want hits=5 misses=6", a)
	}
}

func TestLedgerPerApp(t *testing.T) {
	var l Ledger
	l.Record(1, true)
	l.Record(1, false)
	l.Record(2, false)
	if got := l.App(1); got.Hits != 1 || got.Misses != 1 {
		t.Errorf("App(1) = %+v", got)
	}
	if got := l.App(2); got.Misses != 1 {
		t.Errorf("App(2) = %+v", got)
	}
	if got := l.App(3); got.Accesses() != 0 {
		t.Errorf("App(3) = %+v, want zero", got)
	}
	if l.Total.Accesses() != 3 {
		t.Errorf("Total = %+v, want 3 accesses", l.Total)
	}
	ids := l.ASIDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Errorf("ASIDs = %v, want [1 2]", ids)
	}
	l.Reset()
	if l.Total.Accesses() != 0 || len(l.ASIDs()) != 0 {
		t.Error("Reset did not clear the ledger")
	}
}

func TestLedgerASIDsAscendingIncludesUnrecordedCells(t *testing.T) {
	var l Ledger
	l.Record(9, true)
	l.AppRef(4) // a cell with no accesses yet
	l.Record(300, false)
	l.SetApp(2, HitMiss{Hits: 5})
	want := []uint16{2, 4, 9, 300}
	got := l.ASIDs()
	if len(got) != len(want) {
		t.Fatalf("ASIDs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ASIDs = %v, want %v", got, want)
		}
	}
}

func TestLedgerAppUnseenIsZero(t *testing.T) {
	var l Ledger
	if got := l.App(0); got != (HitMiss{}) {
		t.Errorf("App(0) on an empty ledger = %+v", got)
	}
	l.Record(3, true)
	l.Record(7, false)
	for _, asid := range []uint16{0, 5, 8, 1000, 65535} {
		if got := l.App(asid); got != (HitMiss{}) {
			t.Errorf("App(%d) = %+v, want zero", asid, got)
		}
	}
}

func TestLedgerMaxASID(t *testing.T) {
	var l Ledger
	l.Record(65535, false)
	l.Record(65535, true)
	if got := l.App(65535); got.Hits != 1 || got.Misses != 1 {
		t.Errorf("App(65535) = %+v", got)
	}
	if ids := l.ASIDs(); len(ids) != 1 || ids[0] != 65535 {
		t.Errorf("ASIDs = %v, want [65535]", ids)
	}
}

// AppRef cells must survive the ledger growing to a larger ASID: the
// cache regions and hot paths hold them across later admissions.
func TestLedgerAppRefStableAcrossGrowth(t *testing.T) {
	var l Ledger
	cell := l.AppRef(1)
	cell.Record(true)
	for _, asid := range []uint16{2, 64, 4096, 65535} {
		l.Record(asid, false)
	}
	if l.AppRef(1) != cell {
		t.Fatal("AppRef(1) moved after the ledger grew")
	}
	if l.SetApp(1, HitMiss{Misses: 3}) != cell || cell.Misses != 3 {
		t.Fatal("SetApp did not write through the existing cell")
	}
	if got := l.App(1); got != (HitMiss{Misses: 3}) {
		t.Errorf("App(1) = %+v", got)
	}
}

func TestLedgerResetDropsCells(t *testing.T) {
	var l Ledger
	old := l.AppRef(5)
	l.Record(2, true)
	l.Reset()
	if ids := l.ASIDs(); len(ids) != 0 {
		t.Errorf("ASIDs after Reset = %v, want none", ids)
	}
	if got := l.App(5); got != (HitMiss{}) {
		t.Errorf("App(5) after Reset = %+v", got)
	}
	if l.AppRef(5) == old {
		t.Error("AppRef after Reset returned the dropped cell")
	}
}

// TestLedgerRecordZeroAllocs guards the per-access path: once an ASID
// has a cell, recording against it allocates nothing.
func TestLedgerRecordZeroAllocs(t *testing.T) {
	var l Ledger
	l.Record(3, true)
	l.Record(1, true)
	allocs := testing.AllocsPerRun(1000, func() {
		l.Record(3, false)
		l.Record(1, true)
	})
	if allocs != 0 {
		t.Errorf("Record on existing ASIDs allocates %v times per run, want 0", allocs)
	}
}

// Property: ledger total always equals the sum over apps.
func TestLedgerConsistencyProperty(t *testing.T) {
	f := func(events []uint16) bool {
		var l Ledger
		for i, e := range events {
			l.Record(e%4, i%3 == 0)
		}
		var sum HitMiss
		for _, id := range l.ASIDs() {
			sum.Add(l.App(id))
		}
		return sum == l.Total
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWindowRoll(t *testing.T) {
	var w Window
	w.Record(true)
	w.Record(false)
	got := w.Roll()
	if got.Hits != 1 || got.Misses != 1 {
		t.Errorf("Roll = %+v", got)
	}
	if w.Snapshot().Accesses() != 0 {
		t.Error("window not cleared after Roll")
	}
	w.Record(false)
	if w.Snapshot().Misses != 1 {
		t.Error("window did not accumulate after Roll")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(4)
	for _, v := range []uint64{0, 1, 1, 2, 9} {
		h.Observe(v)
	}
	if h.Buckets[0] != 1 || h.Buckets[1] != 2 || h.Buckets[2] != 1 || h.Buckets[3] != 1 {
		t.Errorf("Buckets = %v", h.Buckets)
	}
	if h.Count != 5 || h.Sum != 13 || h.Max != 9 {
		t.Errorf("Count/Sum/Max = %d/%d/%d", h.Count, h.Sum, h.Max)
	}
	if got := h.Mean(); math.Abs(got-13.0/5) > 1e-12 {
		t.Errorf("Mean = %v", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Min != 1 || s.Max != 5 {
		t.Errorf("Summary = %+v", s)
	}
	if math.Abs(s.Mean-3) > 1e-12 {
		t.Errorf("Mean = %v, want 3", s.Mean)
	}
	if math.Abs(s.StdDev-math.Sqrt(2)) > 1e-9 {
		t.Errorf("StdDev = %v, want sqrt(2)", s.StdDev)
	}
	if s.P50 != 3 {
		t.Errorf("P50 = %v, want 3", s.P50)
	}
	if s.P90 != 4 { // nearest-rank on index int(0.9*4)=3
		t.Errorf("P90 = %v, want 4", s.P90)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Errorf("Summarize(nil) = %+v, want zero", s)
	}
}

func TestSqrtMatchesMath(t *testing.T) {
	f := func(v uint32) bool {
		x := float64(v) / 1000
		got := Sqrt(x)
		want := math.Sqrt(x)
		return math.Abs(got-want) <= 1e-9*(1+want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if Sqrt(-1) != 0 || Sqrt(0) != 0 {
		t.Error("Sqrt of non-positive should be 0")
	}
}
