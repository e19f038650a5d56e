package coherence

import (
	"maps"
	"testing"
	"testing/quick"
)

func TestFirstReadIsExclusive(t *testing.T) {
	d := NewDirectory()
	act, _ := d.Read(1, 0)
	if act.NewState != Exclusive || act.InvalidateMask != 0 || act.WritebackFrom != -1 {
		t.Errorf("first read = %+v", act)
	}
	if d.StateOf(1, 0) != Exclusive {
		t.Errorf("state = %v, want E", d.StateOf(1, 0))
	}
}

func TestSecondReaderSharesAndDowngrades(t *testing.T) {
	d := NewDirectory()
	d.Read(1, 0) // E
	act, _ := d.Read(1, 1)
	if act.NewState != Shared {
		t.Errorf("second reader state = %v", act.NewState)
	}
	if act.DowngradeMask != 1<<0 {
		t.Errorf("downgrade mask = %b, want owner bit", act.DowngradeMask)
	}
	if act.WritebackFrom != -1 {
		t.Error("clean E copy should not write back")
	}
	if d.StateOf(1, 0) != Shared || d.StateOf(1, 1) != Shared {
		t.Errorf("states = %v, %v, want S, S", d.StateOf(1, 0), d.StateOf(1, 1))
	}
}

func TestReadFromModifiedWritesBack(t *testing.T) {
	d := NewDirectory()
	d.Write(1, 0) // M
	act, _ := d.Read(1, 1)
	if act.WritebackFrom != 0 {
		t.Errorf("WritebackFrom = %d, want 0", act.WritebackFrom)
	}
	if act.DowngradeMask != 1<<0 {
		t.Errorf("DowngradeMask = %b", act.DowngradeMask)
	}
	if d.StateOf(1, 0) != Shared {
		t.Errorf("former owner state = %v, want S", d.StateOf(1, 0))
	}
	if d.Stats().Writebacks != 1 || d.Stats().Downgrades != 1 {
		t.Errorf("stats = %+v", d.Stats())
	}
}

func TestSilentEToMUpgrade(t *testing.T) {
	d := NewDirectory()
	d.Read(1, 0) // E
	act, _ := d.Write(1, 0)
	if act.NewState != Modified || act.InvalidateMask != 0 {
		t.Errorf("E->M upgrade = %+v", act)
	}
	if d.Stats().SilentUpgrades != 1 {
		t.Errorf("silent upgrades = %d", d.Stats().SilentUpgrades)
	}
	if d.StateOf(1, 0) != Modified {
		t.Errorf("state = %v, want M", d.StateOf(1, 0))
	}
}

func TestSToMInvalidatesSharers(t *testing.T) {
	d := NewDirectory()
	d.Read(1, 0)
	d.Read(1, 1)
	d.Read(1, 2) // S in 0,1,2
	act, _ := d.Write(1, 1)
	if act.InvalidateMask != (1<<0 | 1<<2) {
		t.Errorf("invalidate mask = %b, want caches 0 and 2", act.InvalidateMask)
	}
	if d.Stats().OwnershipUpgrades != 1 || d.Stats().Invalidations != 2 {
		t.Errorf("stats = %+v", d.Stats())
	}
	if d.StateOf(1, 0) != Invalid || d.StateOf(1, 2) != Invalid || d.StateOf(1, 1) != Modified {
		t.Error("post-upgrade states wrong")
	}
}

func TestWriteMissFromModifiedOwner(t *testing.T) {
	d := NewDirectory()
	d.Write(1, 0) // M in 0
	act, _ := d.Write(1, 1)
	if act.InvalidateMask != 1<<0 || act.WritebackFrom != 0 {
		t.Errorf("write-miss action = %+v", act)
	}
	if d.StateOf(1, 0) != Invalid || d.StateOf(1, 1) != Modified {
		t.Error("ownership did not transfer")
	}
}

func TestEvictForgetsSharer(t *testing.T) {
	d := NewDirectory()
	d.Write(1, 0)
	d.Evict(1, 0)
	if d.StateOf(1, 0) != Invalid {
		t.Error("evicted copy still tracked")
	}
	if d.Lines() != 0 {
		t.Error("empty entry not reclaimed")
	}
	// A later read is a fresh Exclusive.
	if act, _ := d.Read(1, 2); act.NewState != Exclusive {
		t.Errorf("post-evict read = %+v", act)
	}
	// Evicting an untracked line is a no-op.
	d.Evict(99, 3)
}

func TestRepeatedAccessIsQuiet(t *testing.T) {
	d := NewDirectory()
	d.Write(1, 0)
	for i := 0; i < 5; i++ {
		act, _ := d.Read(1, 0)
		if act.InvalidateMask != 0 || act.DowngradeMask != 0 || act.WritebackFrom != -1 {
			t.Errorf("self read produced traffic: %+v", act)
		}
		if act.NewState != Modified {
			t.Errorf("self read state = %v, want M retained", act.NewState)
		}
	}
}

// TestOwnerWriteChangesNothing: a write by the line's dirty owner
// yields no action and leaves every entry as it was, so counting it with
// CountOwnerWrite gives the same Stats as calling Write.
func TestOwnerWriteChangesNothing(t *testing.T) {
	lines := func(d *Directory) map[uint64]LineInfo {
		out := map[uint64]LineInfo{}
		d.EachLine(func(l LineInfo) { out[l.Line] = l })
		return out
	}
	build := func() *Directory {
		d := NewDirectory()
		d.Read(1, 0)
		d.Read(1, 1)
		d.Write(2, 1)
		d.Write(3, 2)
		return d
	}
	d, counted := build(), build()
	before := lines(d)
	act, err := d.Write(2, 1)
	if err != nil || act != (Action{NewState: Modified, WritebackFrom: -1}) {
		t.Fatalf("owner write = %+v, %v; want no action", act, err)
	}
	if after := lines(d); !maps.Equal(after, before) {
		t.Errorf("owner write changed entries: %+v -> %+v", before, after)
	}
	counted.CountOwnerWrite()
	if d.Stats() != counted.Stats() {
		t.Errorf("Stats after Write %+v, after CountOwnerWrite %+v", d.Stats(), counted.Stats())
	}
}

func TestCacheIDBounds(t *testing.T) {
	d := NewDirectory()
	for _, id := range []int{-1, MaxCaches, MaxCaches + 7} {
		if _, err := d.Read(1, id); err == nil {
			t.Errorf("Read with cache id %d accepted", id)
		}
		if _, err := d.Write(1, id); err == nil {
			t.Errorf("Write with cache id %d accepted", id)
		}
		if err := d.Evict(1, id); err == nil {
			t.Errorf("Evict with cache id %d accepted", id)
		}
	}
	// Rejected requests must not perturb state or counters.
	if d.Lines() != 0 {
		t.Errorf("rejected requests created %d directory entries", d.Lines())
	}
	if s := d.Stats(); s.Reads != 0 || s.Writes != 0 {
		t.Errorf("rejected requests counted: %+v", s)
	}
	// The boundary IDs themselves work.
	if _, err := d.Read(1, 0); err != nil {
		t.Errorf("Read from cache 0: %v", err)
	}
	if _, err := d.Write(2, MaxCaches-1); err != nil {
		t.Errorf("Write from cache %d: %v", MaxCaches-1, err)
	}
}

// Protocol invariants under random operation sequences:
//  1. at most one cache in M or E per line;
//  2. if any cache is in S, no cache is in M or E;
//  3. the directory's answer to StateOf is consistent with a shadow
//     model applying the returned actions.
func TestMESIInvariantsProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		d := NewDirectory()
		shadow := map[uint64]map[int]State{} // line -> cache -> state
		apply := func(line uint64, act Action, requestor int) {
			m := shadow[line]
			if m == nil {
				m = map[int]State{}
				shadow[line] = m
			}
			for c := 0; c < 4; c++ {
				if act.InvalidateMask&(1<<uint(c)) != 0 {
					m[c] = Invalid
				}
				if act.DowngradeMask&(1<<uint(c)) != 0 {
					m[c] = Shared
				}
			}
			m[requestor] = act.NewState
		}
		for _, op := range ops {
			line := uint64(op % 8)
			c := int(op>>3) % 4
			var act Action
			switch (op >> 6) % 3 {
			case 0:
				act, _ = d.Read(line, c)
			case 1:
				act, _ = d.Write(line, c)
			case 2:
				d.Evict(line, c)
				if m := shadow[line]; m != nil {
					m[c] = Invalid
				}
				continue
			}
			apply(line, act, c)
			// Invariants over the shadow state.
			owners, sharers := 0, 0
			for cc, st := range shadow[line] {
				switch st {
				case Modified, Exclusive:
					owners++
				case Shared:
					sharers++
				}
				if d.StateOf(line, cc) != st {
					return false
				}
			}
			if owners > 1 || (owners > 0 && sharers > 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" ||
		Exclusive.String() != "E" || Modified.String() != "M" {
		t.Error("state names wrong")
	}
}
