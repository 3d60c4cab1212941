package rng

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at step %d: %d != %d", i, av, bv)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 produced %d/100 identical outputs", same)
	}
}

func TestReseedRestoresStream(t *testing.T) {
	r := New(7)
	first := make([]uint64, 16)
	for i := range first {
		first[i] = r.Uint64()
	}
	r.Reseed(7)
	for i := range first {
		if got := r.Uint64(); got != first[i] {
			t.Fatalf("after Reseed, output %d = %d, want %d", i, got, first[i])
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(99)
	before := *parent // copy state
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	if *parent != before {
		t.Fatal("Split perturbed the parent state")
	}
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("substreams 1 and 2 start identically")
	}
	// Same label twice must give the same substream.
	c1b := parent.Split(1)
	c1.Reseed(0) // scramble c1; recreate from label instead
	c1 = parent.Split(1)
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c1b.Uint64() {
			t.Fatalf("Split(1) not reproducible at step %d", i)
		}
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(3)
	for _, n := range []uint64{1, 2, 3, 7, 64, 1000, 1 << 40} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Uint64n(0) did not panic")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared style sanity check on a small modulus.
	r := New(12345)
	const n, iters = 10, 100000
	counts := make([]int, n)
	for i := 0; i < iters; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(iters) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("value %d drawn %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(8)
	const iters = 200000
	sum := 0.0
	for i := 0; i < iters; i++ {
		sum += r.Float64()
	}
	mean := sum / iters
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestSampleKDistinctAndInRange(t *testing.T) {
	r := New(21)
	check := func(k, n int) bool {
		if k < 0 || n < k {
			return true // constrained by generator below
		}
		dst := make([]int, k)
		r.SampleK(dst, n)
		seen := map[int]bool{}
		for _, v := range dst {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 500, Values: nil}
	if err := quick.Check(func(k8, n8 uint8) bool {
		n := int(n8%130) + 1
		k := int(k8) % (n + 1)
		return check(k, n)
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSampleKCoverage(t *testing.T) {
	// Every element of [0,n) must be reachable.
	r := New(31)
	const n, k, iters = 12, 4, 20000
	hit := make([]int, n)
	dst := make([]int, k)
	for i := 0; i < iters; i++ {
		r.SampleK(dst, n)
		for _, v := range dst {
			hit[v]++
		}
	}
	want := float64(iters*k) / n
	for v, c := range hit {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("component %d sampled %d times, want ~%.0f", v, c, want)
		}
	}
}

func TestSampleKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SampleK(k>n) did not panic")
		}
	}()
	New(1).SampleK(make([]int, 5), 4)
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(17)
	const iters = 200000
	sum := 0.0
	for i := 0; i < iters; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / iters
	if math.Abs(mean-1) > 0.02 {
		t.Fatalf("ExpFloat64 mean = %v, want ~1", mean)
	}
}

// appendBernoulliLog is the selection AppendBernoulli makes, computed
// the direct way: one logarithm per draw, U = 1 − Float64() and a gap
// of ⌊ln U / ln(1−q)⌋ before each selected index. The tests hold the
// table-driven sampler to it draw for draw.
func appendBernoulliLog[T ~int](r *Source, dst []T, n int, q float64) []T {
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
		skip := math.Floor(math.Log(1-r.Float64()) / lq)
		if skip >= float64(n-1-i) {
			return dst
		}
		i += int(skip) + 1
		dst = append(dst, T(i))
	}
}

// bernoulliEdges are probabilities whose selection is known: none for
// q ≤ 0 or NaN, every index for q ≥ 1, and none for 1e-12 at the
// n ≤ 100 of TestAppendBernoulliEdges.
var bernoulliEdges = []float64{0, -1, math.NaN(), 1, 2, math.Inf(1), 1e-12}

func TestAppendBernoulliEdges(t *testing.T) {
	for _, n := range []int{0, 1, 100} {
		for _, q := range bernoulliEdges {
			r := New(77)
			b := NewBernoulli(q)
			sel := AppendBernoulli(r, &b, []int{-1}, n)
			if sel[0] != -1 {
				t.Fatalf("n=%d q=%v: dst prefix overwritten", n, q)
			}
			var want []int
			if q >= 1 {
				for i := 0; i < n; i++ {
					want = append(want, i)
				}
			}
			if !slices.Equal(sel[1:], want) {
				t.Fatalf("n=%d q=%v: selected %v, want %v", n, q, sel[1:], want)
			}
			// Outside (0, 1) the answer needs no randomness.
			if !(q > 0 && q < 1) && *r != *New(77) {
				t.Fatalf("n=%d q=%v: advanced the stream", n, q)
			}
			if !(q > 0 && q < 1) && b.tab != nil {
				t.Fatalf("q=%v: built a table of %d words", q, len(b.tab))
			}
		}
	}
	var zero Bernoulli
	if sel := AppendBernoulli(New(77), &zero, []int(nil), 100); len(sel) != 0 {
		t.Fatalf("zero Bernoulli selected %v", sel)
	}
}

// bernoulliQs span the table's regimes: q = 1e-6 and 1e-3 are capped
// at maxThresholds with a long tail past the table, 0.01 to 0.5 cover
// the 2⁻¹⁰ tail, and 0.99 needs two thresholds.
var bernoulliQs = []float64{1e-6, 1e-3, 0.01, 0.05, 0.2, 0.5, 0.99}

// TestAppendBernoulliMatchesLog holds the table-driven sampler to the
// log-per-draw loop: the same selection and the same Source state
// after every call. Each q runs 10⁵ calls at each of n = 1, 2 and 100
// and up to 10⁵ at n = 36 612 (fewer where q·n makes a call long).
func TestAppendBernoulliMatchesLog(t *testing.T) {
	for _, q := range bernoulliQs {
		b := NewBernoulli(q)
		for _, n := range []int{1, 2, 100, 36612} {
			trials := 100000
			if testing.Short() {
				trials /= 10
			}
			if n > 100 {
				trials = max(100, min(trials, int(2e6/(float64(n)*q+1))))
			}
			r, ref := New(uint64(n)), New(uint64(n))
			var sel, want []int
			for i := 0; i < trials; i++ {
				sel = AppendBernoulli(r, &b, sel[:0], n)
				want = appendBernoulliLog(ref, want[:0], n, q)
				if !slices.Equal(sel, want) {
					t.Fatalf("q=%v n=%d call %d: selected %v, the log loop %v", q, n, i, sel, want)
				}
				if *r != *ref {
					t.Fatalf("q=%v n=%d call %d: Source state differs from the log loop's", q, n, i)
				}
			}
		}
	}
}

// TestBernoulliTable checks every threshold against gap itself,
// skip(t[j]−1) < j ≤ skip(t[j]), every guide entry against the
// thresholds, the 64 KiB bound, and the 2⁻¹⁰ tail wherever the table
// is not capped. The extra probabilities stress repeated thresholds
// (1e-17, 1e-300: the first nonzero draw already skips many indices)
// and the largest q below 1.
func TestBernoulliTable(t *testing.T) {
	const top = 1 << 53
	for _, q := range append([]float64{1e-300, 1e-17, 0.3, math.Nextafter(1, 0)}, bernoulliQs...) {
		b := NewBernoulli(q)
		if b.k < 1 || b.k > maxThresholds || 8*len(b.tab) > 64<<10 {
			t.Fatalf("q=%v: k=%d with %d table words", q, b.k, len(b.tab))
		}
		if b.k < maxThresholds && math.Pow(1-q, float64(b.k)) > 1.0/1024 {
			t.Errorf("q=%v: tail (1−q)^%d = %v exceeds 2⁻¹⁰", q, b.k, math.Pow(1-q, float64(b.k)))
		}
		th := b.tab[:b.k+2]
		if th[0] != 0 || th[b.k+1] != math.MaxUint64 {
			t.Fatalf("q=%v: t[0] = %d, sentinel %d", q, th[0], th[b.k+1])
		}
		for j := 1; j <= b.k; j++ {
			x := th[j]
			if x < th[j-1] || x > top {
				t.Fatalf("q=%v: t[%d] = %d after t[%d] = %d", q, j, x, j-1, th[j-1])
			}
			if x < top && gap(x, b.lq) < float64(j) {
				t.Errorf("q=%v: skip(t[%d] = %d) = %v < %d", q, j, x, gap(x, b.lq), j)
			}
			if x > 0 && gap(x-1, b.lq) >= float64(j) {
				t.Errorf("q=%v: skip(t[%d]−1 = %d) = %v ≥ %d", q, j, x-1, gap(x-1, b.lq), j)
			}
		}
		buckets := uint64(1) << (53 - b.shift)
		if words := uint64(len(b.tab) - b.k - 2); words*4 != buckets {
			t.Fatalf("q=%v: %d guide words for %d buckets", q, words, buckets)
		}
		guide := b.tab[b.k+2:]
		for h := uint64(0); h < buckets; h++ {
			lo := h << b.shift
			j := guideEntry(guide, h)
			if j > b.k || th[j] > lo || th[j+1] <= lo {
				t.Fatalf("q=%v: guide[%d] = %d, but bucket starts at %d (t[j] = %d, t[j+1] = %d)",
					q, h, j, lo, th[j], th[j+1])
			}
		}
	}
}

// TestAppendBernoulliIndexFrequency checks that every index, the first
// and the last included, is selected with probability q: a chi-square
// over per-index counts, each Binomial(trials, q) on its own.
func TestAppendBernoulliIndexFrequency(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		trials int
	}{
		{64, 0.05, 20000},
		{16, 0.5, 4000},
		{3, 0.9, 4000},
	} {
		r := New(11)
		b := NewBernoulli(tc.q)
		counts := make([]int, tc.n)
		var sel []int
		for i := 0; i < tc.trials; i++ {
			sel = AppendBernoulli(r, &b, sel[:0], tc.n)
			for _, v := range sel {
				counts[v]++
			}
		}
		mean := float64(tc.trials) * tc.q
		chi2 := 0.0
		for _, c := range counts {
			d := float64(c) - mean
			chi2 += d * d / (mean * (1 - tc.q))
		}
		// n degrees of freedom: mean n, standard deviation √(2n).
		if limit := float64(tc.n) + 5*math.Sqrt(2*float64(tc.n)); chi2 > limit {
			t.Errorf("n=%d q=%v: chi-square %.1f over %d indices exceeds %.1f (counts %v)",
				tc.n, tc.q, chi2, tc.n, limit, counts)
		}
	}
}

// TestAppendBernoulliCountBinomial checks the number selected per call
// against Binomial(n, q): sample mean and variance, each within five
// standard errors.
func TestAppendBernoulliCountBinomial(t *testing.T) {
	for _, tc := range []struct {
		n      int
		q      float64
		trials int
	}{
		{36612, 0.01, 2000},
		{36612, 0.001, 2000},
		{20, 0.3, 20000},
	} {
		r := New(23)
		b := NewBernoulli(tc.q)
		var sel []int
		sum, sumSq := 0.0, 0.0
		for i := 0; i < tc.trials; i++ {
			sel = AppendBernoulli(r, &b, sel[:0], tc.n)
			k := float64(len(sel))
			sum += k
			sumSq += k * k
		}
		trials := float64(tc.trials)
		mean := sum / trials
		variance := (sumSq - trials*mean*mean) / (trials - 1)
		wantMean := float64(tc.n) * tc.q
		wantVar := wantMean * (1 - tc.q)
		if se := math.Sqrt(wantVar / trials); math.Abs(mean-wantMean) > 5*se {
			t.Errorf("n=%d q=%v: mean count %.3f, want %.3f ± %.3f", tc.n, tc.q, mean, wantMean, 5*se)
		}
		// The variance of a sample variance is about 2σ⁴/(trials−1).
		if se := wantVar * math.Sqrt(2/(trials-1)); math.Abs(variance-wantVar) > 5*se {
			t.Errorf("n=%d q=%v: count variance %.3f, want %.3f ± %.3f", tc.n, tc.q, variance, wantVar, 5*se)
		}
	}
}

// TestAppendBernoulliGapsGeometric checks the runs of unselected
// indices before each selected one against Geometric(q),
// P(gap = k) = (1−q)^k·q, by a chi-square over about twenty bins of
// near-equal probability. The run after the last selected index is cut
// off by n and is left out.
func TestAppendBernoulliGapsGeometric(t *testing.T) {
	const n, calls, bins = 1 << 16, 8, 20
	for _, q := range []float64{0.2, 0.01, 0.0005} {
		lq := math.Log1p(-q)
		// Bin j holds gaps in [edges[j], edges[j+1]); the last is open.
		var edges []int
		for j := 0; j < bins; j++ {
			e := int(math.Round(math.Log1p(-float64(j)/bins) / lq))
			if len(edges) == 0 || e > edges[len(edges)-1] {
				edges = append(edges, e)
			}
		}
		observed := make([]int, len(edges))
		total := 0
		r := New(5)
		b := NewBernoulli(q)
		var sel []int
		for c := 0; c < calls; c++ {
			sel = AppendBernoulli(r, &b, sel[:0], n)
			prev := -1
			for _, v := range sel {
				gap := v - prev - 1
				prev = v
				j, _ := slices.BinarySearch(edges, gap+1)
				observed[j-1]++
				total++
			}
		}
		chi2 := 0.0
		for j, lo := range edges {
			p := math.Exp(float64(lo) * lq)
			if j+1 < len(edges) {
				p -= math.Exp(float64(edges[j+1]) * lq)
			}
			want := p * float64(total)
			d := float64(observed[j]) - want
			chi2 += d * d / want
		}
		df := float64(len(edges) - 1)
		if limit := df + 5*math.Sqrt(2*df); chi2 > limit {
			t.Errorf("q=%v: gap chi-square %.1f over %d bins (%d gaps) exceeds %.1f; observed %v",
				q, chi2, len(edges), total, limit, observed)
		}
	}
}

// FuzzAppendBernoulli checks the selection invariants for any seed,
// n ≤ 1<<16 and q: ascending, distinct and in [0, n); nothing for
// q ≤ 0 or NaN; everything for q ≥ 1; and the log-per-draw loop's
// selection and final Source state.
func FuzzAppendBernoulli(f *testing.F) {
	for _, q := range append([]float64{0.01, 0.5, math.Nextafter(1, 0), 1e-300}, bernoulliEdges...) {
		f.Add(uint64(1), uint32(36612), q)
	}
	f.Add(uint64(7), uint32(1<<16), 0.25)
	f.Fuzz(func(t *testing.T, seed uint64, n32 uint32, q float64) {
		n := int(n32 % (1<<16 + 1))
		b := NewBernoulli(q)
		r := New(seed)
		sel := AppendBernoulli(r, &b, []int(nil), n)
		for i, v := range sel {
			if v < 0 || v >= n || (i > 0 && v <= sel[i-1]) {
				t.Fatalf("n=%d q=%v: selection %d is %d after %v", n, q, i, v, sel[:i])
			}
		}
		switch {
		case !(q > 0) && len(sel) != 0:
			t.Fatalf("n=%d q=%v: selected %d, want none", n, q, len(sel))
		case q >= 1 && len(sel) != n:
			t.Fatalf("n=%d q=%v: selected %d, want all", n, q, len(sel))
		}
		ref := New(seed)
		if want := appendBernoulliLog(ref, []int(nil), n, q); !slices.Equal(sel, want) || *r != *ref {
			t.Fatalf("n=%d q=%v seed=%d: selected %v, the log loop %v", n, q, seed, sel, want)
		}
	})
}

// bernoulliBenchQs sweeps the failure probabilities of the fabric and
// dual-rail IID models and beyond.
var bernoulliBenchQs = []float64{1e-4, 0.001, 0.01, 0.1, 0.25, 0.5}

// BenchmarkAppendBernoulli draws one fat-tree k=36 trial (36 612
// components) per op from a prebuilt table; /log runs the log-per-draw
// loop it replaced on the same stream.
func BenchmarkAppendBernoulli(b *testing.B) {
	for _, q := range bernoulliBenchQs {
		bern := NewBernoulli(q)
		b.Run(fmt.Sprintf("q=%v", q), func(b *testing.B) {
			r := New(1)
			dst := make([]int, 0, 32768)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = AppendBernoulli(r, &bern, dst[:0], 36612)
			}
		})
		b.Run(fmt.Sprintf("log/q=%v", q), func(b *testing.B) {
			r := New(1)
			dst := make([]int, 0, 32768)
			for i := 0; i < b.N; i++ {
				dst = appendBernoulliLog(r, dst[:0], 36612, q)
			}
		})
	}
}

// BenchmarkNewBernoulli times building one table, which
// EstimateFabric and EstimateIID pay once per estimate.
func BenchmarkNewBernoulli(b *testing.B) {
	for _, q := range append([]float64{1e-6}, bernoulliBenchQs...) {
		b.Run(fmt.Sprintf("q=%v", q), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				NewBernoulli(q)
			}
		})
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkSampleK(b *testing.B) {
	r := New(1)
	dst := make([]int, 10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.SampleK(dst, 130)
	}
}
