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

// Bernoulli is a failure probability q prepared for AppendBernoulli.
// Build it once with NewBernoulli; it is read-only afterwards, so any
// number of goroutines may share one. The zero value selects nothing.
type Bernoulli struct {
	q  float64
	lq float64 // ln(1−q)
	// tab is t[0..k+1] followed by the guide, four 16-bit entries to a
	// word. t[j] is the least 53-bit x with gap(x, lq) ≥ j (2⁵³ if
	// there is none), so t[0] = 0, and t[k+1] = MaxUint64 stops every
	// scan. Guide entry h is the gap of the least x with
	// x>>shift == h, capped at k.
	tab   []uint64
	k     int
	shift uint
}

// The table fits in 64 KiB: at most 4096 threshold words and 2¹⁴
// guide entries. Eight guide buckets per threshold leave most buckets
// without one, so a lookup rarely scans.
const (
	maxThresholds = 4094
	guideBits     = 3
	maxGuideBits  = 14
)

// gap maps the 53 random bits x of one draw to the number of
// unselected indices before the next selected one, ⌊ln U / ln(1−q)⌋
// with U = 1 − x/2⁵³ in (0, 1], which is Geometric(q). For a tiny q
// it can be +Inf.
func gap(x uint64, lq float64) float64 {
	return math.Floor(math.Log(1-float64(x)/(1<<53)) / lq)
}

// NewBernoulli prepares the failure probability q. For q in (0, 1)
// it tabulates the draws that map to each gap below k, with k the
// least gap whose tail (1−q)^k is ≤ 2⁻¹⁰, or 4094 if that is
// smaller. Each threshold starts from the closed form
// 2⁵³·(1 − (1−q)^j) and is moved to where gap itself changes. gap
// never decreases as x grows (Log is monotone), so a table lookup
// returns what gap returns for every draw.
func NewBernoulli(q float64) Bernoulli {
	b := Bernoulli{q: q}
	if !(q > 0 && q < 1) {
		return b
	}
	b.lq = math.Log1p(-q)
	if kf := math.Ceil(-10 * math.Ln2 / b.lq); kf < maxThresholds {
		b.k = int(kf)
	} else {
		b.k = maxThresholds
	}
	g := min(uint(bits.Len(uint(b.k)))+guideBits, maxGuideBits)
	b.shift = 53 - g
	b.tab = make([]uint64, b.k+2+1<<g/4)
	t, guide := b.tab[:b.k+2], b.tab[b.k+2:]
	const top = 1 << 53
	for j := 1; j <= b.k; j++ {
		c := uint64(top)
		if est := math.Ceil(-math.Expm1(float64(j)*b.lq) * top); est < top {
			c = uint64(int64(est))
		}
		// The closed form lands within a step or two of where gap
		// itself reaches j; walk there. Each threshold is found on its
		// own, so the iterations overlap.
		for c > 0 && gap(c-1, b.lq) >= float64(j) {
			c--
		}
		for c < top && gap(c, b.lq) < float64(j) {
			c++
		}
		t[j] = c
	}
	t[b.k+1] = math.MaxUint64
	j := 0
	for h := uint64(0); h < 1<<g; h++ {
		for t[j+1] <= h<<b.shift {
			j++
		}
		guide[h/4] |= uint64(j) << (h % 4 * 16)
	}
	return b
}

// guideEntry reads entry h of a packed guide.
func guideEntry(guide []uint64, h uint64) int {
	return int(guide[h/4] >> (h % 4 * 16) & 0xffff)
}

// AppendBernoulli selects each index of [0, n) independently with the
// probability b was built for, appends T(i) for every selected i to
// dst in ascending order, and returns the extended slice. q ≤ 0 or NaN
// selects nothing and q ≥ 1 every index, both without drawing; a NaN
// probability is a configuration error callers must reject.
//
// This is the hot path of the independent-failure Monte Carlo models,
// which fail about n·q of n components per trial. It skips between
// selected indices geometrically, one Uint64 per selected index plus
// one, so a call makes about n·q + 1 draws instead of n; the selected
// set has the distribution of n independent Float64() < q tests, not
// their realisation. Each draw's gap is looked up in b's threshold
// table, starting at the guide entry for its high bits; only a draw
// past the table's last threshold that could still select an index
// evaluates the logarithm.
func AppendBernoulli[T ~int](r *Source, b *Bernoulli, dst []T, n int) []T {
	if !(b.q > 0) {
		return dst
	}
	if b.q >= 1 {
		for i := 0; i < n; i++ {
			dst = append(dst, T(i))
		}
		return dst
	}
	// Locals keep the table and the stream state in registers; the
	// state is written back when the call returns.
	k, lq, shift := b.k, b.lq, b.shift
	t, guide := b.tab[:k+2], b.tab[k+2:]
	src := *r
	for i := -1; ; {
		x := src.Uint64() >> 11
		j := guideEntry(guide, x>>shift)
		for t[j+1] <= x {
			j++
		}
		// j is the gap, or its lower bound k past the table.
		rem := n - 1 - i
		if j == k && j < rem {
			s := gap(x, lq)
			j = int(min(s, float64(rem)))
		}
		if j >= rem {
			*r = src
			return dst
		}
		i += j + 1
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
