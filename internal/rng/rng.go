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

// Int63 returns a non-negative 63-bit integer. It exists so a Source
// can stand in where math/rand.Source semantics are expected.
func (r *Source) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Seed is a no-op provided for interface compatibility with
// math/rand.Source; use Reseed for deterministic reseeding.
func (r *Source) Seed(seed int64) { r.Reseed(uint64(seed)) }

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

// AppendBernoulli makes n draws exactly as n calls of Float64 would,
// appends T(i) to dst for every draw i below q, and returns the
// extended slice; r is left in the state those calls would leave it.
// q ≤ 0 selects nothing and q ≥ 1 selects every index. A NaN q also
// selects nothing, as Float64() < NaN never holds, but a NaN
// probability is a configuration error callers must reject.
//
// This is the hot path of the independent-failure Monte Carlo models:
// the generator state stays in locals across the loop, and each draw
// is compared as an integer. Float64() < q is x>>11 < ⌈q·2⁵³⌉ exactly,
// because scaling by a power of two is exact.
func AppendBernoulli[T ~int](r *Source, dst []T, n int, q float64) []T {
	var thresh uint64
	switch {
	case q >= 1:
		thresh = 1 << 53
	case q > 0:
		thresh = uint64(math.Ceil(q * (1 << 53)))
	}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for i := 0; i < n; i++ {
		// One Uint64 step, as in the method above.
		x := bits.RotateLeft64(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = bits.RotateLeft64(s3, 45)
		if x>>11 < thresh {
			dst = append(dst, T(i))
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return dst
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the
// Fisher–Yates algorithm. swap exchanges elements i and j.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := int(r.Uint64n(uint64(i + 1)))
		swap(i, j)
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

// NormFloat64 returns a normally distributed float64 with mean 0 and
// standard deviation 1, using the Marsaglia polar method.
func (r *Source) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}
