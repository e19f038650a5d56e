// Package rng provides the deterministic pseudo-random number generators
// used across the simulator.
//
// The paper notes that the Random and Randy replacement policies depend on
// "the entropy of the random number generator implemented in hardware".
// We model that hardware RNG with xoshiro256**, seeded via splitmix64,
// which has excellent uniformity for victim selection while keeping every
// experiment bit-for-bit reproducible. The package deliberately does not
// use math/rand so that streams are stable across Go releases.
package rng

import "fmt"

// SplitMix64 is the seeding generator recommended by the xoshiro authors.
// It is also useful on its own as a cheap hash-like sequence.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a SplitMix64 seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// DeriveSeed returns the stream-th seed derived from base. Distinct
// streams yield statistically independent xoshiro256** generators (each
// derived seed is one SplitMix64 output, the same mechanism New uses to
// expand a seed into a state), so concurrent jobs can each run their own
// Source without interleaving draws from a shared stream. The mapping is
// pure: DeriveSeed(base, i) is stable across runs and platforms.
func DeriveSeed(base, stream uint64) uint64 {
	// The stream-th state of a SplitMix64 walk starting at base.
	sm := SplitMix64{state: base + stream*0x9e3779b97f4a7c15}
	return sm.Next()
}

// Source is a xoshiro256** generator. The zero value is invalid; use New.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via SplitMix64, per the xoshiro
// reference implementation's seeding guidance.
func New(seed uint64) *Source {
	sm := NewSplitMix64(seed)
	var src Source
	for i := range src.s {
		src.s[i] = sm.Next()
	}
	// Guard against the (astronomically unlikely) all-zero state.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 0x9e3779b97f4a7c15
	}
	return &src
}

// State returns the generator's internal 256-bit state, for
// checkpointing. Feeding it back through SetState yields a Source that
// continues the exact draw sequence.
func (r *Source) State() [4]uint64 { return r.s }

// SetState overwrites the generator state with a previously captured
// State. It rejects the all-zero state (xoshiro's single invalid fixed
// point) so a corrupted checkpoint cannot wedge the stream.
func (r *Source) SetState(s [4]uint64) error {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		return fmt.Errorf("rng: all-zero xoshiro256** state is invalid")
	}
	r.s = s
	return nil
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
// Lemire's multiply-shift rejection method avoids modulo bias.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	un := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, un)
		if lo >= un || lo >= (-un)%un {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniform value in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Perm returns a pseudo-random permutation of [0, n) using Fisher-Yates.
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Zipf samples from a Zipf distribution over {0, ..., n-1} with exponent
// theta (theta > 0, typically around 0.8-1.2 for cache workloads). It uses
// the classic inverse-CDF method over a precomputed table, which is exact
// and fast for the table sizes cache workloads need.
//
// A guide table (the cutpoint method) narrows each inverse-CDF search to
// a few buckets. guide[k+1] is the rank the full search returns for the
// cutpoint u = k/m, for k in [-1, m+1] (the two outer entries are the
// first and last rank). The bucket count m is a power of two, so both
// u·m and k/m are exact in float64 and floor(u·m) = k places u in
// [k/m, (k+1)/m). The search result is monotone in u, so the answer for
// u lies in [guide[k], guide[k+3]], one bucket of margin on either side;
// searching only that slice with the same cdf[i] < u predicate returns
// exactly the rank the full search returns. The table holds 4 B × (m+3)
// entries, at most 1/8 of the CDF's 8 B × n; n < 16 gets no table.
type Zipf struct {
	src     *Source
	cdf     []float64
	guide   []int32
	buckets float64 // m
}

// NewZipf builds a Zipf sampler over n items with exponent theta.
// It panics if n <= 0 or theta <= 0.
func NewZipf(src *Source, n int, theta float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with non-positive n")
	}
	if theta <= 0 {
		panic("rng: NewZipf with non-positive theta")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	z := &Zipf{src: src, cdf: cdf}
	m := 0 // the largest power of two with 4 B × (m+3) <= n B
	for b := 1; 4*(b+3) <= n; b *= 2 {
		m = b
	}
	if m > 0 && n <= 1<<31-1 {
		z.buckets = float64(m)
		z.guide = make([]int32, m+3)
		z.guide[m+2] = int32(n - 1)
		for k := 0; k <= m; k++ {
			z.guide[k+1] = int32(searchCDF(cdf, float64(k)/z.buckets, 0, n-1))
		}
	}
	return z
}

// Next returns the next sample; rank 0 is the most popular item.
func (z *Zipf) Next() int { return z.rank(z.src.Float64()) }

// rank maps u in [0, 1) to the first rank whose cdf entry is >= u (the
// last rank if none is), through the guide table when there is one.
func (z *Zipf) rank(u float64) int {
	lo, hi := 0, len(z.cdf)-1
	if z.guide != nil {
		k := int(u * z.buckets)
		lo, hi = int(z.guide[k]), int(z.guide[k+3])
	}
	return searchCDF(z.cdf, u, lo, hi)
}

// searchCDF binary-searches cdf[lo..hi] for the first entry >= u,
// returning hi when no entry in the slice is.
func searchCDF(cdf []float64, u float64, lo, hi int) int {
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

// pow computes x**y for y > 0 without importing math, using exp/log-free
// exponentiation by squaring on the integer part and a small series for
// the fractional part. Accuracy (~1e-9 relative) far exceeds what a
// workload skew parameter needs.
func pow(x, y float64) float64 {
	if x <= 0 {
		return 0
	}
	// x^y = exp(y * ln x); implement ln and exp with enough precision.
	return exp(y * ln(x))
}

func ln(x float64) float64 {
	// Range-reduce x into [1, 2) by factoring out powers of two.
	k := 0
	for x >= 2 {
		x /= 2
		k++
	}
	for x < 1 {
		x *= 2
		k--
	}
	// atanh series: ln(x) = 2*atanh((x-1)/(x+1)).
	t := (x - 1) / (x + 1)
	t2 := t * t
	sum := 0.0
	term := t
	for i := 1; i < 40; i += 2 {
		sum += term / float64(i)
		term *= t2
	}
	const ln2 = 0.6931471805599453
	return 2*sum + float64(k)*ln2
}

func exp(x float64) float64 {
	// Range-reduce: x = k*ln2 + r with |r| <= ln2/2.
	const ln2 = 0.6931471805599453
	k := int(x/ln2 + sign(x)*0.5)
	r := x - float64(k)*ln2
	// Taylor series for e^r on the small remainder.
	sum := 1.0
	term := 1.0
	for i := 1; i < 20; i++ {
		term *= r / float64(i)
		sum += term
	}
	// Scale by 2^k.
	for ; k > 0; k-- {
		sum *= 2
	}
	for ; k < 0; k++ {
		sum /= 2
	}
	return sum
}

func sign(x float64) float64 {
	if x < 0 {
		return -1
	}
	return 1
}
