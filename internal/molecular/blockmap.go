package molecular

import "math/bits"

// blockMap is the fast-path index's hash table: block number → holding
// molecule, open-addressed with linear probing over a power-of-two
// entry array and Fibonacci (multiplicative) hashing. The Go runtime
// map it replaces was the single largest cost of a steady-state hit —
// the generic hashing and bucket machinery cost more than the rest of
// the lookup combined. This table does one multiply and, at the load
// factors it maintains, usually one probe.
//
// Deletion is backward-shift (Knuth's Algorithm R): the freed slot is
// refilled from later in its probe run, so no slot is left marked as
// deleted and a fixed population churning through remove+set — a full
// region's steady miss stream — never re-tables. The entry array is
// re-allocated only when the live population crosses 3/4 of capacity
// (grow) or falls below 1/8 (shrink), so neither hits nor steady-state
// misses allocate. Key 0 is a legal block number, so slot state lives
// in the value pointer: nil = empty.

// blockMapMinSize is the smallest (and initial) table capacity.
const blockMapMinSize = 64

// blockHashMul is 2^64 / φ, the usual Fibonacci-hashing multiplier; the
// high bits of the product avalanche well even for the dense small
// integers block numbers are.
const blockHashMul = 0x9e3779b97f4a7c15

type blockEntry struct {
	key uint64
	val *Molecule
}

type blockMap struct {
	entries []blockEntry
	// shift is 64 - log2(len(entries)): the hash's high bits become the
	// starting slot, so no masking is needed on the first probe.
	shift uint
	live  int
}

// home returns b's preferred slot.
func (t *blockMap) home(b uint64) uint64 { return (b * blockHashMul) >> t.shift }

// get returns the molecule holding block b, or nil.
func (t *blockMap) get(b uint64) *Molecule {
	if len(t.entries) == 0 {
		return nil
	}
	mask := uint64(len(t.entries) - 1)
	for i := t.home(b); ; i = (i + 1) & mask {
		e := &t.entries[i]
		if e.val == nil {
			return nil
		}
		if e.key == b {
			return e.val
		}
	}
}

// set binds block b to molecule m, updating in place if b is present.
func (t *blockMap) set(b uint64, m *Molecule) {
	if (t.live+1)*4 > len(t.entries)*3 {
		t.resize()
	}
	mask := uint64(len(t.entries) - 1)
	for i := t.home(b); ; i = (i + 1) & mask {
		e := &t.entries[i]
		if e.val == nil {
			e.key, e.val = b, m
			t.live++
			return
		}
		if e.key == b {
			e.val = m
			return
		}
	}
}

// remove drops the entry for b if (and only if) it names m, reporting
// whether it did — the conditional the index maintenance contract needs
// (a companion's eviction must not take a different holder's entry).
func (t *blockMap) remove(b uint64, m *Molecule) bool {
	if len(t.entries) == 0 {
		return false
	}
	mask := uint64(len(t.entries) - 1)
	hole := t.home(b)
	for ; ; hole = (hole + 1) & mask {
		e := &t.entries[hole]
		if e.val == nil {
			return false
		}
		if e.key == b {
			if e.val != m {
				return false
			}
			break
		}
	}
	// Walk the rest of the run. An entry at j whose home slot lies
	// cyclically in (hole, j] is reachable without passing the hole and
	// stays; any other would be cut off by it, so it moves into the
	// hole and its old slot becomes the new hole.
	for j := (hole + 1) & mask; t.entries[j].val != nil; j = (j + 1) & mask {
		if (j-t.home(t.entries[j].key))&mask >= (j-hole)&mask {
			t.entries[hole] = t.entries[j]
			hole = j
		}
	}
	t.entries[hole] = blockEntry{}
	t.live--
	if t.live*8 < len(t.entries) && len(t.entries) > blockMapMinSize {
		t.resize()
	}
	return true
}

// size returns the number of live entries.
func (t *blockMap) size() int { return t.live }

// each calls f for every live entry. The order is a deterministic
// function of the insertion history, but callers must not depend on it;
// it exists to build snapshots and run audits.
func (t *blockMap) each(f func(b uint64, m *Molecule)) {
	for i := range t.entries {
		if v := t.entries[i].val; v != nil {
			f(t.entries[i].key, v)
		}
	}
}

// resize re-tables every live entry into the smallest capacity that
// holds one more than the current population at no more than half
// load: a grow doubles the table, and a shrink leaves it at most half
// full and, above the minimum size, at least a quarter full — well clear
// of both thresholds.
func (t *blockMap) resize() {
	size := blockMapMinSize
	for (t.live+1)*2 > size {
		size <<= 1
	}
	old := t.entries
	t.entries = make([]blockEntry, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, e := range old {
		if e.val == nil {
			continue
		}
		i := t.home(e.key)
		for t.entries[i].val != nil {
			i = (i + 1) & mask
		}
		t.entries[i] = e
	}
}
