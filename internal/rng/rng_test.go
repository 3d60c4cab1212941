package rng

import (
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

func TestAppendBernoulliMatchesFloat64(t *testing.T) {
	first := New(77).Float64()
	qs := []float64{
		0, 1e-300, 0.01, 0.5, math.Nextafter(1, 0), 1,
		-1, 2, math.Inf(1), math.NaN(),
		first, math.Nextafter(first, 0), math.Nextafter(first, 1),
	}
	for _, n := range []int{0, 1, 7, 36612} {
		for _, q := range qs {
			ref, got := New(77), New(77)
			var want []int
			for i := 0; i < n; i++ {
				if ref.Float64() < q {
					want = append(want, i)
				}
			}
			sel := AppendBernoulli(got, []int{-1}, n, q)
			if sel[0] != -1 || !slices.Equal(sel[1:], want) {
				t.Fatalf("n=%d q=%v: selected %d indices, Float64 loop %d", n, q, len(sel)-1, len(want))
			}
			if a, b := got.Uint64(), ref.Uint64(); a != b {
				t.Fatalf("n=%d q=%v: next Uint64 %d, Float64 loop leaves %d", n, q, a, b)
			}
		}
	}
}

func BenchmarkAppendBernoulli(b *testing.B) {
	r := New(1)
	dst := make([]int, 0, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = AppendBernoulli(r, dst[:0], 36612, 0.01)
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
