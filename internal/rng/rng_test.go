package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequences diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("different seeds produced %d identical values in 100 draws", same)
	}
}

func TestIntnRange(t *testing.T) {
	r := New(7)
	for _, n := range []int{1, 2, 3, 7, 16, 1000} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

// Intn over a small modulus should be close to uniform; this is the
// property the Random replacement policy depends on.
func TestIntnUniformity(t *testing.T) {
	r := New(99)
	const n, draws = 8, 80000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Errorf("bucket %d: count %d deviates more than 5%% from %f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(5)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestZipfSkew(t *testing.T) {
	r := New(11)
	z := NewZipf(r, 100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 50000; i++ {
		counts[z.Next()]++
	}
	// Rank 0 must be the most frequent, and frequencies must broadly decay.
	if counts[0] <= counts[10] || counts[10] <= counts[90] {
		t.Errorf("Zipf counts not decreasing: c0=%d c10=%d c90=%d",
			counts[0], counts[10], counts[90])
	}
	// With theta=1, p(0)/p(1) = 2; check ratio within 15%.
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.7 || ratio > 2.3 {
		t.Errorf("Zipf rank0/rank1 ratio = %v, want ~2", ratio)
	}
}

func TestZipfBounds(t *testing.T) {
	z := NewZipf(New(1), 10, 0.8)
	for i := 0; i < 5000; i++ {
		v := z.Next()
		if v < 0 || v >= 10 {
			t.Fatalf("Zipf sample %d out of range", v)
		}
	}
}

func TestLnExpAccuracy(t *testing.T) {
	cases := []float64{0.1, 0.5, 1, 2, 2.718281828, 10, 12345}
	for _, x := range cases {
		if got, want := ln(x), math.Log(x); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("ln(%v) = %v, want %v", x, got, want)
		}
	}
	for _, x := range []float64{-5, -1, -0.1, 0, 0.1, 1, 5, 20} {
		if got, want := exp(x), math.Exp(x); math.Abs(got-want) > 1e-9*(1+want) {
			t.Errorf("exp(%v) = %v, want %v", x, got, want)
		}
	}
}

func TestPowMatchesMath(t *testing.T) {
	f := func(xi, yi uint8) bool {
		x := 0.5 + float64(xi)/16 // [0.5, 16.4]
		y := 0.1 + float64(yi)/64 // [0.1, 4.1]
		got := pow(x, y)
		want := math.Pow(x, y)
		return math.Abs(got-want) <= 1e-8*(1+want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeriveSeedMatchesSplitMixWalk(t *testing.T) {
	// DeriveSeed(base, i) is defined as the (i+1)-th output of a
	// SplitMix64 walk starting at base — the same expansion New uses, so
	// derived generators inherit its independence guarantees.
	walk := NewSplitMix64(2006)
	for i := uint64(0); i < 100; i++ {
		if got, want := DeriveSeed(2006, i), walk.Next(); got != want {
			t.Fatalf("DeriveSeed(2006, %d) = %#x, want walk output %#x", i, got, want)
		}
	}
}

func TestDeriveSeedStreamsIndependent(t *testing.T) {
	// Distinct streams must yield distinct seeds and generators whose
	// outputs never coincide over a long prefix (a shared or correlated
	// state would show up as collisions immediately).
	const streams, draws = 16, 1000
	seen := map[uint64]int{}
	srcs := make([]*Source, streams)
	for i := 0; i < streams; i++ {
		s := DeriveSeed(2006, uint64(i))
		if prev, dup := seen[s]; dup {
			t.Fatalf("streams %d and %d share seed %#x", prev, i, s)
		}
		seen[s] = i
		srcs[i] = New(s)
	}
	values := map[uint64]bool{}
	for _, src := range srcs {
		for d := 0; d < draws; d++ {
			values[src.Uint64()] = true
		}
	}
	if len(values) != streams*draws {
		t.Errorf("cross-stream collisions: %d unique of %d draws",
			len(values), streams*draws)
	}
}

// TestDeriveSeedNoInterleaving is the scheduler-safety property the
// parallel runner depends on: a job's stream is a pure function of
// (base, job index), so the values a job draws cannot depend on how many
// draws other jobs made first — unlike jobs sharing one Source, where the
// completion order would reshuffle every sequence.
func TestDeriveSeedNoInterleaving(t *testing.T) {
	const jobs, draws = 8, 64
	drawAll := func(order []int) [jobs][draws]uint64 {
		var out [jobs][draws]uint64
		for _, j := range order {
			src := New(DeriveSeed(2006, uint64(j)))
			for d := 0; d < draws; d++ {
				out[j][d] = src.Uint64()
			}
		}
		return out
	}
	forward := make([]int, jobs)
	reverse := make([]int, jobs)
	for i := 0; i < jobs; i++ {
		forward[i] = i
		reverse[i] = jobs - 1 - i
	}
	if drawAll(forward) != drawAll(reverse) {
		t.Fatal("per-job streams depend on execution order")
	}

	// The counterexample: interleaving draws from one shared Source gives
	// each job a schedule-dependent sequence. This is why the runner
	// derives a seed per job instead of sharing a generator.
	shared := func(order []int) [jobs][draws]uint64 {
		var out [jobs][draws]uint64
		src := New(2006)
		for _, j := range order {
			for d := 0; d < draws; d++ {
				out[j][d] = src.Uint64()
			}
		}
		return out
	}
	if shared(forward) == shared(reverse) {
		t.Fatal("shared-source draws unexpectedly order-independent")
	}
}

func TestSplitMix64KnownValues(t *testing.T) {
	// Reference values for seed 0 from the public-domain splitmix64.c.
	s := NewSplitMix64(0)
	want := []uint64{
		0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f,
	}
	for i, w := range want {
		if got := s.Next(); got != w {
			t.Errorf("splitmix64 step %d = %#x, want %#x", i, got, w)
		}
	}
}

// referenceRank is Zipf.Next's original full binary search: the first
// cdf entry >= u, or the last rank if none is. The guide table must
// reproduce it exactly.
func referenceRank(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestZipfMatchesBinarySearch locks the guide-table search to the full
// binary search on every (n, theta) the SPEC and embedded generators
// build (internal/workload/bench.go: region bytes / 64-byte lines), plus
// the smallest n. The adversarial u values sit exactly on and one ulp
// either side of every cdf entry and every bucket cutpoint, where a
// narrowed search range that missed the answer would show first.
func TestZipfMatchesBinarySearch(t *testing.T) {
	const kb = 1024
	cases := []struct {
		n     int
		theta float64
	}{
		{1536 * kb / 64, 1.1},  // mcf.hot
		{256 * kb / 64, 1.2},   // ammp.hot
		{1024 * kb / 64, 1.0},  // parser.dict
		{96 * kb / 64, 1.1},    // crafty.tables
		{192 * kb / 64, 0.8},   // gcc.ir
		{128 * kb / 64, 0.7},   // gzip.window
		{160 * kb / 64, 0.55},  // twolf.cells
		{256 * kb / 64, 0.9},   // gap.heap
		{1024 * kb / 64, 1.05}, // NAT.table
		{1, 1.0}, {2, 1.0}, {3, 0.8},
	}
	for _, tc := range cases {
		z := NewZipf(New(uint64(tc.n)), tc.n, tc.theta)
		if tc.n >= 16 && z.guide == nil {
			t.Errorf("n=%d: no guide table", tc.n)
		}
		if got, limit := 4*len(z.guide), len(z.cdf); got > limit { // 1/8 of 8 B per entry
			t.Errorf("n=%d: guide table %d B exceeds 1/8 of the CDF (%d B)", tc.n, got, limit)
		}
		us := []float64{0, math.Nextafter(1, 0)}
		for _, c := range z.cdf {
			us = append(us, c, math.Nextafter(c, 0), math.Nextafter(c, 2))
		}
		for k := 0; k < len(z.guide); k++ {
			c := float64(k) / z.buckets
			us = append(us, c, math.Nextafter(c, 0), math.Nextafter(c, 2))
		}
		for _, u := range us {
			if u < 0 || u >= 1 {
				continue // outside Float64's range, so never drawn
			}
			if got, want := z.rank(u), referenceRank(z.cdf, u); got != want {
				t.Fatalf("n=%d theta=%v u=%v: rank %d, full search %d", tc.n, tc.theta, u, got, want)
			}
		}
		// Next draws its u from the source: a twin source fed to the
		// full search must agree draw for draw.
		twin := New(uint64(tc.n))
		for i := 0; i < 10000; i++ {
			if got, want := z.Next(), referenceRank(z.cdf, twin.Float64()); got != want {
				t.Fatalf("n=%d theta=%v draw %d: Next %d, full search %d", tc.n, tc.theta, i, got, want)
			}
		}
	}
}
