package survival

import (
	"math/big"
	"sync"
	"testing"
	"testing/quick"

	"drsnet/internal/topology"
)

// TestClosedFormEnumerationMemoAgree is the satellite property test:
// for every N ≤ 10, f ≤ 5, the uncached closed form, the memoized
// closed form and exhaustive enumeration of all C(2N+2, f) scenarios
// must produce the same count.
func TestClosedFormEnumerationMemoAgree(t *testing.T) {
	ResetCaches()
	for n := 2; n <= 10; n++ {
		for f := 0; f <= 5; f++ {
			raw := successCountRaw(n, f)
			memo1 := SuccessCount(n, f) // cold: populates the cache
			memo2 := SuccessCount(n, f) // warm: served from the cache
			enum, _, err := enumeratePair(topology.Dual(n), f, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if raw.Cmp(enum) != 0 {
				t.Errorf("n=%d f=%d: raw %v != enumeration %v", n, f, raw, enum)
			}
			if memo1.Cmp(raw) != 0 || memo2.Cmp(raw) != 0 {
				t.Errorf("n=%d f=%d: memo %v/%v != raw %v", n, f, memo1, memo2, raw)
			}
		}
	}
}

// TestAllPairsMemoAgainstRawAndEnumeration is the same property for
// the all-pairs extension (smaller range: enumeration is exponential).
func TestAllPairsMemoAgainstRawAndEnumeration(t *testing.T) {
	ResetCaches()
	for n := 2; n <= 6; n++ {
		for f := 0; f <= 5; f++ {
			raw := allPairsSuccessCountRaw(n, f)
			memo := AllPairsSuccessCount(n, f)
			enum, _, err := enumerateAllPairs(topology.Dual(n), f)
			if err != nil {
				t.Fatal(err)
			}
			if raw.Cmp(enum) != 0 || memo.Cmp(raw) != 0 {
				t.Errorf("n=%d f=%d: raw %v memo %v enumeration %v", n, f, raw, memo, enum)
			}
		}
	}
}

// TestCachedRatsMatchFreshInstance asserts the cached path returns the
// same exact *big.Rat values as a fresh survival "instance" (the
// package after ResetCaches): warm-cache PSuccess must be
// rational-identical — numerator and denominator — to the cold path.
func TestCachedRatsMatchFreshInstance(t *testing.T) {
	ResetCaches()
	fresh := make(map[pairKey]*big.Rat)
	for n := 2; n <= 10; n++ {
		for f := 0; f <= 5; f++ {
			fresh[pairKey{n, f}] = PSuccess(n, f)
		}
	}
	// Second pass: everything is served from the memo now.
	for n := 2; n <= 10; n++ {
		for f := 0; f <= 5; f++ {
			cached := PSuccess(n, f)
			want := fresh[pairKey{n, f}]
			if cached.Cmp(want) != 0 {
				t.Fatalf("P(%d,%d): cached %s != fresh %s", n, f, cached.RatString(), want.RatString())
			}
			// Exact representation, not just numeric equality.
			if cached.RatString() != want.RatString() {
				t.Fatalf("P(%d,%d): cached representation %s != fresh %s",
					n, f, cached.RatString(), want.RatString())
			}
		}
	}
}

// TestPascalRowsMatchStdlib cross-checks the multiplicative row
// construction against math/big's own Binomial.
func TestPascalRowsMatchStdlib(t *testing.T) {
	err := quick.Check(func(n16 uint16, k16 uint16) bool {
		n := int(n16 % 300)
		k := int(k16) % (n + 1)
		return Binomial(n, k).Cmp(new(big.Int).Binomial(int64(n), int64(k))) == 0
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// TestCallersCannotCorruptCache mutates returned values in place and
// verifies later reads are unaffected — the copy-out discipline that
// makes the cache safe against the package's own Lsh/Sub call sites.
func TestCallersCannotCorruptCache(t *testing.T) {
	ResetCaches()
	b := Binomial(20, 10)
	want := new(big.Int).Set(b)
	b.Lsh(b, 13) // caller scribbles on its copy
	if got := Binomial(20, 10); got.Cmp(want) != 0 {
		t.Fatalf("Binomial(20,10) corrupted: %v, want %v", got, want)
	}
	s := SuccessCount(8, 3)
	wantS := new(big.Int).Set(s)
	s.Sub(s, big.NewInt(99))
	if got := SuccessCount(8, 3); got.Cmp(wantS) != 0 {
		t.Fatalf("SuccessCount(8,3) corrupted: %v, want %v", got, wantS)
	}
	a := AllPairsSuccessCount(8, 3)
	wantA := new(big.Int).Set(a)
	a.SetInt64(-1)
	if got := AllPairsSuccessCount(8, 3); got.Cmp(wantA) != 0 {
		t.Fatalf("AllPairsSuccessCount(8,3) corrupted: %v, want %v", got, wantA)
	}
}

// TestCacheConcurrentReadersAgree hammers the cold cache from many
// goroutines; under -race this is the regression test for the memo's
// locking, and every goroutine must observe identical exact values.
func TestCacheConcurrentReadersAgree(t *testing.T) {
	ResetCaches()
	const goroutines = 16
	results := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			var vals []string
			for n := 2; n <= 24; n++ {
				for f := 0; f <= 6; f++ {
					vals = append(vals, PSuccess(n, f).RatString())
					vals = append(vals, AllPairsPSuccess(n, f).RatString())
				}
			}
			results[g] = vals
		}()
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for i := range results[0] {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d diverges at value %d: %s != %s",
					g, i, results[g][i], results[0][i])
			}
		}
	}
}

// TestSeriesWorkersBitIdentical: the survival-level sweeps must be
// bit-identical across worker counts.
func TestSeriesWorkersBitIdentical(t *testing.T) {
	ref := SeriesWorkers(4, 5, 63, 1)
	refAll := AllPairsSeriesWorkers(4, 5, 63, 1)
	for _, workers := range []int{2, 4, 8} {
		got := SeriesWorkers(4, 5, 63, workers)
		gotAll := AllPairsSeriesWorkers(4, 5, 63, workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: Series diverges at %d: %v != %v", workers, i, got[i], ref[i])
			}
			if gotAll[i] != refAll[i] {
				t.Fatalf("workers=%d: AllPairsSeries diverges at %d", workers, i)
			}
		}
	}
}

// BenchmarkPSuccessMemoized measures the warm-cache path.
func BenchmarkPSuccessMemoized(b *testing.B) {
	PSuccess(63, 10) // warm
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PSuccess(63, 10)
	}
}

// BenchmarkPSuccessCold measures the uncached closed form.
func BenchmarkPSuccessCold(b *testing.B) {
	for i := 0; i < b.N; i++ {
		successCountRaw(63, 10)
	}
}
