package molecular

// Direct tests of the open-addressed block → molecule table. The
// differential oracle and the index property tests exercise it through
// the cache; these pin the table's own contract — including the states
// a full simulation may take long to reach (churn at a fixed population,
// backward-shift deletion across the wrap-around, key 0, conditional
// removal against the wrong holder).

import (
	"slices"
	"testing"

	"molcache/internal/rng"
)

func TestBlockMapBasics(t *testing.T) {
	var bm blockMap
	a, b := &Molecule{id: 1}, &Molecule{id: 2}

	if got := bm.get(0); got != nil {
		t.Fatalf("empty table returned %v for key 0", got)
	}
	bm.set(0, a) // key 0 is a legal block number
	bm.set(7, b)
	if bm.get(0) != a || bm.get(7) != b {
		t.Fatal("lookups after insert disagree")
	}
	if bm.size() != 2 {
		t.Fatalf("size = %d, want 2", bm.size())
	}
	bm.set(0, b) // in-place update
	if bm.get(0) != b || bm.size() != 2 {
		t.Fatal("update changed size or missed")
	}
	if bm.remove(7, a) {
		t.Fatal("conditional remove succeeded against the wrong holder")
	}
	if bm.get(7) != b {
		t.Fatal("failed conditional remove disturbed the entry")
	}
	if !bm.remove(7, b) || bm.get(7) != nil || bm.size() != 1 {
		t.Fatal("remove of the right holder did not take")
	}
}

// TestBlockMapChurn holds the population fixed while cycling keys
// through insert/delete far past the table capacity: backward-shift
// deletion leaves no dead slots, so the table must neither grow without
// bound nor lose a key; once most keys are gone it must shrink back.
func TestBlockMapChurn(t *testing.T) {
	var bm blockMap
	m := &Molecule{id: 3}
	const population = 100
	for k := uint64(0); k < population; k++ {
		bm.set(k, m)
	}
	for k := uint64(0); k < 100_000; k++ {
		if !bm.remove(k, m) {
			t.Fatalf("key %d missing before its deletion", k)
		}
		bm.set(k+population, m)
		if bm.size() != population {
			t.Fatalf("size drifted to %d", bm.size())
		}
	}
	if cap := len(bm.entries); cap > 1024 {
		t.Errorf("table grew to %d slots for a population of %d", cap, population)
	}
	seen := 0
	bm.each(func(k uint64, got *Molecule) {
		if got != m {
			t.Errorf("key %d bound to %v", k, got)
		}
		seen++
	})
	if seen != population {
		t.Errorf("each visited %d entries, want %d", seen, population)
	}

	// Grow far past the churn population, then delete nearly
	// everything: the table must give the memory back.
	const big = 10_000
	for k := uint64(1 << 20); k < 1<<20+big; k++ {
		bm.set(k, m)
	}
	grown := len(bm.entries)
	for k := uint64(1 << 20); k < 1<<20+big; k++ {
		if !bm.remove(k, m) {
			t.Fatalf("key %#x missing before its deletion", k)
		}
	}
	const keep = 10
	first := uint64(100_000) // the churn loop's surviving keys start here
	for k := first + keep; k < first+population; k++ {
		if !bm.remove(k, m) {
			t.Fatalf("key %d missing before its deletion", k)
		}
	}
	if cap := len(bm.entries); cap > 2*blockMapMinSize {
		t.Errorf("table still %d slots (grown to %d) for %d live keys; want near the %d minimum",
			cap, grown, bm.size(), blockMapMinSize)
	}
	for k := first; k < first+keep; k++ {
		if bm.get(k) != m {
			t.Fatalf("key %d lost across grow and shrink", k)
		}
	}
}

// TestBlockMapChurnZeroAllocs pins that a fixed population churning
// through remove+set — a full region's steady miss stream — never
// re-tables, even just under the 3/4 grow threshold of a power-of-two
// table, where a rebuild sized for the live population would land on
// the same capacity and be redone every few pairs.
func TestBlockMapChurnZeroAllocs(t *testing.T) {
	for _, population := range []int{47, 95, 190, 3070} {
		var bm blockMap
		m := &Molecule{id: 4}
		for k := 0; k < population; k++ {
			bm.set(uint64(k), m)
		}
		oldest := uint64(0)
		allocs := testing.AllocsPerRun(2000, func() {
			bm.remove(oldest, m)
			bm.set(oldest+uint64(population), m)
			oldest++
		})
		if allocs != 0 {
			t.Errorf("population %d in %d slots: %v allocs per remove+set, want 0",
				population, len(bm.entries), allocs)
		}
		if bm.size() != population {
			t.Errorf("population %d: size drifted to %d", population, bm.size())
		}
	}
}

// TestBlockMapMirrorsMap drives a randomized op mix against the table
// and a plain Go map and demands they never disagree.
func TestBlockMapMirrorsMap(t *testing.T) {
	var bm blockMap
	oracle := make(map[uint64]*Molecule)
	mols := []*Molecule{{id: 0}, {id: 1}, {id: 2}}
	src := rng.New(0xb10c)
	const keySpace = 4096
	for i := 0; i < 200_000; i++ {
		k := uint64(src.Intn(keySpace))
		switch src.Intn(3) {
		case 0:
			m := mols[src.Intn(len(mols))]
			bm.set(k, m)
			oracle[k] = m
		case 1:
			m := mols[src.Intn(len(mols))]
			if bm.remove(k, m) != (oracle[k] == m) {
				t.Fatalf("op %d: conditional remove of %d disagreed", i, k)
			}
			if oracle[k] == m {
				delete(oracle, k)
			}
		case 2:
			if bm.get(k) != oracle[k] {
				t.Fatalf("op %d: get(%d) = %v, oracle %v", i, k, bm.get(k), oracle[k])
			}
		}
		if bm.size() != len(oracle) {
			t.Fatalf("op %d: size %d, oracle %d", i, bm.size(), len(oracle))
		}
	}
	bm.each(func(k uint64, m *Molecule) {
		if oracle[k] != m {
			t.Errorf("each yielded %d → %v, oracle %v", k, m, oracle[k])
		}
	})

	// Delete-heavy phase: drain every key, checking the survivors after
	// each removal while the table shrinks back to its minimum size.
	for k := uint64(0); k < keySpace; k++ {
		m, ok := oracle[k]
		if !ok {
			continue
		}
		if !bm.remove(k, m) {
			t.Fatalf("drain: remove(%d) missed", k)
		}
		delete(oracle, k)
		for j := k + 1; j < keySpace && j < k+64; j++ {
			if bm.get(j) != oracle[j] {
				t.Fatalf("drain: after remove(%d), get(%d) = %v, oracle %v", k, j, bm.get(j), oracle[j])
			}
		}
	}
	if bm.size() != 0 || len(bm.entries) != blockMapMinSize {
		t.Fatalf("drained table: size %d, %d slots; want 0 in %d", bm.size(), len(bm.entries), blockMapMinSize)
	}

	// Wrap-around: keys homed on the table's last two slots and on its
	// first two form one probe run that crosses index 0. Deleting from
	// its middle must shift members back across the boundary where they
	// belong, and must leave a member already at its home (just past the
	// boundary) in place when the hole is on the far side of it.
	last := uint64(len(bm.entries) - 1)
	var run []uint64
	for _, home := range []uint64{last - 1, last - 1, last, last, 0, 0, 1, 1} {
		k := uint64(1 << 32)
		for bm.home(k) != home || slices.Contains(run, k) {
			k++
		}
		run = append(run, k)
	}
	for i, k := range run {
		bm.set(k, mols[i%len(mols)])
		oracle[k] = mols[i%len(mols)]
	}
	if bm.entries[last].val == nil || bm.entries[0].val == nil {
		t.Fatal("wrap-around keys did not form a run across index 0")
	}
	for _, i := range []int{3, 2, 1, 6} {
		k := run[i]
		if !bm.remove(k, oracle[k]) {
			t.Fatalf("wrap: remove(%#x) missed", k)
		}
		delete(oracle, k)
		for _, j := range run {
			if bm.get(j) != oracle[j] {
				t.Fatalf("wrap: after remove(%#x), get(%#x) = %v, oracle %v", k, j, bm.get(j), oracle[j])
			}
		}
	}
	if bm.size() != len(oracle) {
		t.Fatalf("wrap: size %d, oracle %d", bm.size(), len(oracle))
	}
}
