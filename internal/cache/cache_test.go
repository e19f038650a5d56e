package cache

import (
	"testing"
	"testing/quick"

	"molcache/internal/trace"
)

// tiny returns a 4-set, 2-way, 64B-line cache (512B) for targeted tests.
func tiny(policy PolicyKind) *Cache {
	return MustNew(Config{Size: 512, Ways: 2, LineSize: 64, Policy: policy})
}

func read(a uint64) trace.Ref  { return trace.Ref{Addr: a, Kind: trace.Read} }
func write(a uint64) trace.Ref { return trace.Ref{Addr: a, Kind: trace.Write} }

func TestValidate(t *testing.T) {
	bad := []Config{
		{Size: 1000, Ways: 2, LineSize: 64}, // size not pow2
		{Size: 1024, Ways: 2, LineSize: 60}, // line not pow2
		{Size: 1024, Ways: 0, LineSize: 64}, // no ways
		{Size: 1024, Ways: 3, LineSize: 64}, // ways not pow2
		{Size: 128, Ways: 4, LineSize: 64},  // fewer lines than ways
		{Size: 64, Ways: 2, LineSize: 64},   // one line, two ways
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", cfg)
		}
	}
	good := Config{Size: 1 << 20, Ways: 4, LineSize: 64}
	if err := good.Validate(); err != nil {
		t.Errorf("Validate(%+v) = %v", good, err)
	}
}

func TestName(t *testing.T) {
	if got := (Config{Size: 8 << 20, Ways: 4, LineSize: 64}).Name(); got != "8MB 4-way" {
		t.Errorf("Name = %q", got)
	}
	if got := (Config{Size: 8 << 20, Ways: 1, LineSize: 64}).Name(); got != "8MB DM" {
		t.Errorf("DM Name = %q", got)
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := tiny(LRU)
	if c.Access(read(0x1000)).Hit {
		t.Error("cold access hit")
	}
	if !c.Access(read(0x1000)).Hit {
		t.Error("second access missed")
	}
	if !c.Access(read(0x103f)).Hit {
		t.Error("same-line access missed")
	}
	if c.Access(read(0x1040)).Hit {
		t.Error("next-line access hit")
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := tiny(LRU)
	// Set stride is 4 sets * 64B = 256B; these three map to set 0.
	a, b, x := uint64(0), uint64(256), uint64(512)
	c.Access(read(a))
	c.Access(read(b))
	c.Access(read(a)) // a is now MRU
	res := c.Access(read(x))
	if res.Hit || res.LinesEvicted != 1 {
		t.Fatalf("expected eviction on fill, got %+v", res)
	}
	if !c.Access(read(a)).Hit {
		t.Error("MRU line a was evicted")
	}
	if c.Access(read(b)).Hit {
		t.Error("LRU line b survived")
	}
}

func TestFIFOIgnoresTouches(t *testing.T) {
	c := tiny(FIFO)
	a, b, x := uint64(0), uint64(256), uint64(512)
	c.Access(read(a))
	c.Access(read(b))
	c.Access(read(a)) // touching a must NOT protect it under FIFO
	c.Access(read(x))
	// Probe b first: probing a would miss and refill, evicting b.
	if !c.Access(read(b)).Hit {
		t.Error("FIFO evicted the newer line b")
	}
	if c.Access(read(a)).Hit {
		t.Error("FIFO kept the oldest line a")
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := tiny(LRU)
	c.Access(write(0))  // dirty
	c.Access(read(256)) // clean
	res := c.Access(read(512))
	if res.Writebacks != 1 {
		t.Errorf("evicting dirty line: writebacks = %d, want 1", res.Writebacks)
	}
	res = c.Access(read(768))
	if res.Writebacks != 0 {
		t.Errorf("evicting clean line: writebacks = %d, want 0", res.Writebacks)
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := tiny(LRU)
	c.Access(read(0))
	c.Access(write(0)) // hit, marks dirty
	c.Access(read(256))
	res := c.Access(read(512)) // evicts line 0 (LRU)
	if res.Writebacks != 1 {
		t.Errorf("write-hit line eviction: writebacks = %d, want 1", res.Writebacks)
	}
}

// TestAccessHitReportsDirtyHits: AccessHit reports a hit line's dirty
// bit from before the access, never a miss victim's, and leaves the
// cache exactly as Access would.
func TestAccessHitReportsDirtyHits(t *testing.T) {
	c, ref := tiny(LRU), tiny(LRU)
	steps := []struct {
		r             trace.Ref
		hit, wasDirty bool
	}{
		{read(0), false, false},    // cold miss
		{write(0), true, false},    // hit on a clean line, dirties it
		{write(0), true, true},     // hit on the dirty line
		{read(0), true, true},      // reads see it dirty too
		{read(256), false, false},  // fills the set's other way
		{write(512), false, false}, // evicts dirty line 0: a miss is never dirty
		{write(512), true, true},
	}
	for i, st := range steps {
		hit, dirty := c.AccessHit(st.r)
		if hit != st.hit || dirty != st.wasDirty {
			t.Errorf("step %d: AccessHit = (%v, %v), want (%v, %v)", i, hit, dirty, st.hit, st.wasDirty)
		}
		if res := ref.Access(st.r); res.Hit != hit {
			t.Errorf("step %d: Access hit %v, AccessHit %v", i, res.Hit, hit)
		}
	}
	if c.Ledger().Total != ref.Ledger().Total || c.ValidLines() != ref.ValidLines() {
		t.Errorf("AccessHit and Access diverged: %+v vs %+v", c.Ledger().Total, ref.Ledger().Total)
	}
}

func TestDirectMapped(t *testing.T) {
	c := MustNew(Config{Size: 256, Ways: 1, LineSize: 64}) // 4 sets
	c.Access(read(0))
	if c.Access(read(256)).Hit { // same set, different tag
		t.Error("DM conflicting line hit")
	}
	if c.Access(read(0)).Hit {
		t.Error("DM original line survived a conflict")
	}
}

func TestTagProbesEqualWays(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8} {
		c := MustNew(Config{Size: 4096, Ways: ways, LineSize: 64})
		if got := c.Access(read(0)).TagProbes; got != ways {
			t.Errorf("ways=%d: TagProbes = %d", ways, got)
		}
	}
}

func TestLedgerPerASID(t *testing.T) {
	c := tiny(LRU)
	c.Access(trace.Ref{Addr: 0, ASID: 1})
	c.Access(trace.Ref{Addr: 0, ASID: 1})
	c.Access(trace.Ref{Addr: 64, ASID: 2})
	if got := c.Ledger().App(1); got.Hits != 1 || got.Misses != 1 {
		t.Errorf("app 1 ledger = %+v", got)
	}
	if got := c.Ledger().App(2); got.Misses != 1 {
		t.Errorf("app 2 ledger = %+v", got)
	}
}

func TestInvalidateAndContains(t *testing.T) {
	c := tiny(LRU)
	c.Access(write(0x40))
	if !c.Contains(0x40) || !c.Contains(0x7f) {
		t.Error("Contains missed a resident line")
	}
	present, dirty := c.Invalidate(0x40)
	if !present || !dirty {
		t.Errorf("Invalidate = (%v, %v), want (true, true)", present, dirty)
	}
	if c.Contains(0x40) {
		t.Error("line survived Invalidate")
	}
	present, _ = c.Invalidate(0x40)
	if present {
		t.Error("Invalidate of absent line reported present")
	}
}

func TestFlush(t *testing.T) {
	c := tiny(LRU)
	c.Access(write(0))
	c.Access(read(64))
	if wb := c.Flush(); wb != 1 {
		t.Errorf("Flush writebacks = %d, want 1", wb)
	}
	if c.ValidLines() != 0 {
		t.Error("lines survived Flush")
	}
}

func TestPLRUVictimIsNotMRU(t *testing.T) {
	c := MustNew(Config{Size: 1024, Ways: 4, LineSize: 64, Policy: PLRU})
	// Fill set 0 (set stride = 4 sets * 64 = 256).
	for i := uint64(0); i < 4; i++ {
		c.Access(read(i * 256))
	}
	c.Access(read(3 * 256)) // make way of addr 768 MRU
	c.Access(read(4 * 256)) // force eviction
	if !c.Access(read(3 * 256)).Hit {
		t.Error("PLRU evicted the MRU line")
	}
}

func TestPLRURejectsNonPow2(t *testing.T) {
	if _, err := newPLRU(4, 3); err == nil {
		t.Fatal("PLRU with 3 ways accepted")
	}
	if _, err := NewPolicy(PLRU, 4, 3, 0); err == nil {
		t.Fatal("NewPolicy(PLRU, 3 ways) accepted")
	}
	if _, err := NewPolicy("Bogus", 4, 4, 0); err == nil {
		t.Fatal("unknown policy kind accepted")
	}
	if _, err := New(Config{Size: 1024, Ways: 4, LineSize: 64, Policy: "Bogus"}); err == nil {
		t.Fatal("cache with unknown policy kind accepted")
	}
}

func TestRandomPolicyDeterministicBySeed(t *testing.T) {
	mk := func(seed uint64) []int {
		p, err := NewPolicy(Random, 1, 8, seed)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]int, 50)
		for i := range out {
			out[i] = p.Victim(0)
		}
		return out
	}
	a, b := mk(1), mk(1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Random policy not deterministic for equal seeds")
		}
	}
}

// Property: resident line count never exceeds capacity, and a hit is
// always preceded by a fill of the same line (checked via a shadow map).
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(addrs []uint16, seedBit bool) bool {
		cfg := Config{Size: 1024, Ways: 2, LineSize: 64, Policy: LRU}
		if seedBit {
			cfg.Policy = FIFO
		}
		c := MustNew(cfg)
		resident := map[uint64]bool{} // shadow: lines ever filled
		for _, a16 := range addrs {
			a := uint64(a16)
			res := c.Access(read(a))
			lineAddr := a &^ 63
			if res.Hit && !resident[lineAddr] {
				return false // hit on a never-filled line
			}
			resident[lineAddr] = true
			if c.ValidLines() > 16 { // 1024/64 lines capacity
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: for a working set that fits, LRU reaches zero misses after
// the first sweep regardless of the sweep count.
func TestLRUFittingLoopConverges(t *testing.T) {
	c := MustNew(Config{Size: 4096, Ways: 4, LineSize: 64})
	misses := 0
	for sweep := 0; sweep < 5; sweep++ {
		for a := uint64(0); a < 4096; a += 64 {
			if !c.Access(read(a)).Hit {
				misses++
			}
		}
	}
	if misses != 64 {
		t.Errorf("misses = %d, want exactly the 64 cold misses", misses)
	}
}

// A looping working set slightly larger than a direct-mapped/LRU cache
// must thrash: miss rate near 1 after warmup. This is the mechanism
// behind art's Table 1 collapse, so the baseline must reproduce it.
func TestLRUThrashOnOversizedLoop(t *testing.T) {
	c := MustNew(Config{Size: 4096, Ways: 4, LineSize: 64})
	// 5120B loop over a 4096B cache.
	var misses, total int
	for sweep := 0; sweep < 10; sweep++ {
		for a := uint64(0); a < 5120; a += 64 {
			total++
			if !c.Access(read(a)).Hit {
				misses++
			}
		}
	}
	if rate := float64(misses) / float64(total); rate < 0.95 {
		t.Errorf("oversized loop miss rate = %v, want ~1 (LRU thrash)", rate)
	}
}

func TestDowngradeClearsDirty(t *testing.T) {
	c := tiny(LRU)
	c.Access(write(0x40))
	present, wasDirty := c.Downgrade(0x40)
	if !present || !wasDirty {
		t.Errorf("Downgrade = (%v, %v), want (true, true)", present, wasDirty)
	}
	// The line must remain resident but now be clean: evicting it later
	// produces no writeback.
	if !c.Access(read(0x40)).Hit {
		t.Fatal("line lost by Downgrade")
	}
	c.Access(read(0x40 + 256))
	res := c.Access(read(0x40 + 512)) // evicts the downgraded line
	if res.Writebacks != 0 {
		t.Errorf("downgraded line still wrote back: %+v", res)
	}
	if present, _ := c.Downgrade(0xdead00); present {
		t.Error("Downgrade of absent line reported present")
	}
}

// Property: under any access sequence, per-set LRU never evicts the most
// recently used line of a set.
func TestLRUNeverEvictsMRUProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := MustNew(Config{Size: 1024, Ways: 4, LineSize: 64})
		var lastLine uint64
		haveLast := false
		for _, a16 := range addrs {
			a := uint64(a16)
			c.Access(read(a))
			line := a &^ 63
			if haveLast && lastLine != line {
				// The previous access's line must still be resident.
				if !c.Contains(lastLine) {
					return false
				}
			}
			lastLine, haveLast = line, true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
