// Package rng provides a small, fast, seedable pseudo-random number
// generator with support for independent substreams.
//
// Every stochastic experiment in this repository draws its randomness
// from this package so that runs are reproducible: the same seed yields
// the same results regardless of scheduling, and parallel workers use
// substreams split deterministically from a parent seed, so parallel
// and serial executions of an experiment agree exactly.
//
// The generator is xoshiro256** seeded through SplitMix64, the
// combination recommended by the xoshiro authors. It is not
// cryptographically secure; it is meant for simulation.
package rng

import (
	"math"
	"math/bits"
)

// Source is a deterministic pseudo-random source. It is NOT safe for
// concurrent use; give each goroutine its own Source via Split.
type Source struct {
	s [4]uint64
}

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding, as recommended by the xoshiro authors.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given seed. Two Sources created
// with the same seed produce identical streams.
func New(seed uint64) *Source {
	var r Source
	r.Reseed(seed)
	return &r
}

// Reseed resets the Source to the state it would have when freshly
// created with New(seed).
func (r *Source) Reseed(seed uint64) {
	sm := seed
	for i := range r.s {
		r.s[i] = splitMix64(&sm)
	}
	// xoshiro256** requires a nonzero state; SplitMix64 cannot emit
	// four zero words in a row, so the state is always valid.
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := bits.RotateLeft64(s[1]*5, 7) * 9

	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = bits.RotateLeft64(s[3], 45)
	return result
}

// Split derives an independent substream labelled by id. Substreams
// with distinct labels are statistically independent of each other and
// of the parent, and splitting does not perturb the parent stream.
func (r *Source) Split(id uint64) *Source {
	// Mix the parent state with the label through SplitMix64 so that
	// (seed, id) pairs map to well-separated states.
	sm := r.s[0] ^ bits.RotateLeft64(r.s[2], 23) ^ (id * 0x9e3779b97f4a7c15)
	var child Source
	for i := range child.s {
		child.s[i] = splitMix64(&sm)
	}
	return &child
}

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
// The implementation uses Lemire's multiply-shift rejection method,
// which is unbiased.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// AppendBernoulli selects each index of [0, n) independently with
// probability q, appends T(i) for every selected i to dst in ascending
// order, and returns the extended slice. q ≤ 0 selects nothing and
// q ≥ 1 selects every index without drawing. A NaN q also selects
// nothing, but a NaN probability is a configuration error callers must
// reject.
//
// This is the hot path of the independent-failure Monte Carlo models,
// which fail about n·q of n components per trial. It skips between
// selected indices geometrically: with U = 1 − Float64() in (0, 1],
// the gap ⌊ln U / ln(1−q)⌋ before the next selected index is
// Geometric(q), so a call makes about n·q + 1 draws instead of n. The
// selected set has the distribution of n independent Float64() < q
// tests, but not their realisation: the same seed selects different
// indices than such a loop, and leaves r in a different state. Each
// draw costs a logarithm, so the skip loses to an n-draw scan above
// q ≈ 0.2 (n = 36 612 on a 2-vCPU x86-64 host; see
// BenchmarkAppendBernoulli); every non-test caller passes a small
// failure probability.
func AppendBernoulli[T ~int](r *Source, dst []T, n int, q float64) []T {
	if !(q > 0) {
		return dst
	}
	if q >= 1 {
		for i := 0; i < n; i++ {
			dst = append(dst, T(i))
		}
		return dst
	}
	lq := math.Log1p(-q)
	for i := -1; ; {
		// skip ≥ 0; for a tiny q it can be +Inf, which the bound test
		// reads as no further selection.
		skip := math.Floor(math.Log(1-r.Float64()) / lq)
		if skip >= float64(n-1-i) {
			return dst
		}
		i += int(skip) + 1
		dst = append(dst, T(i))
	}
}

// SampleK fills dst with k distinct integers drawn uniformly from
// [0, n) in unspecified order, using Floyd's algorithm (O(k) expected
// time, no allocation beyond the scratch map when k is small relative
// to n). It panics if k > n or k != len(dst).
//
// This is the hot path of the Monte Carlo survivability simulation:
// choosing which f of the 2N+2 components fail.
func (r *Source) SampleK(dst []int, n int) {
	k := len(dst)
	if k > n {
		panic("rng: SampleK with k > n")
	}
	if k == 0 {
		return
	}
	// For dense samples a partial Fisher–Yates over a scratch slice
	// would win, but survivability runs have k ≤ 10 and n up to 130,
	// so Floyd's algorithm with a small linear-scan set is fastest and
	// allocation free.
	chosen := dst[:0]
	for j := n - k; j < n; j++ {
		t := int(r.Uint64n(uint64(j + 1)))
		if containsInt(chosen, t) {
			t = j
		}
		chosen = append(chosen, t)
	}
}

func containsInt(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1
// (mean 1), computed by inversion. Scale by 1/lambda for other rates.
func (r *Source) ExpFloat64() float64 {
	// Inversion: -ln(U) with U in (0, 1]. Use 1 - Float64() so the
	// argument is never zero.
	u := 1 - r.Float64()
	return -math.Log(u)
}
