package survival

import (
	"math/big"
	"testing"

	"drsnet/internal/topology"
)

func TestAllPairsClosedFormMatchesEnumeration(t *testing.T) {
	for n := 2; n <= 7; n++ {
		m := 2*n + 2
		for f := 0; f <= m; f++ {
			succ, tot, err := enumerateAllPairs(topology.Dual(n), f)
			if err != nil {
				t.Fatal(err)
			}
			if want := TotalCount(n, f); tot.Cmp(want) != 0 {
				t.Fatalf("n=%d f=%d: enumerated %v scenarios, want %v", n, f, tot, want)
			}
			if got := AllPairsSuccessCount(n, f); got.Cmp(succ) != 0 {
				t.Errorf("n=%d f=%d: closed form %v, enumeration %v", n, f, got, succ)
			}
		}
	}
}

func TestAllPairsHandValues(t *testing.T) {
	// N=2, f=2: six of the C(6,2)=15 scenarios keep the pair talking
	// (worked by hand in the derivation comment).
	if got := AllPairsSuccessCount(2, 2); got.Int64() != 6 {
		t.Fatalf("AllPairsSuccessCount(2,2) = %v, want 6", got)
	}
	// f=0 is always survivable; f=1 too (one NIC or one back plane
	// always leaves the other rail fully intact).
	for n := 2; n <= 20; n++ {
		if p := AllPairsPSuccessFloat(n, 0); p != 1 {
			t.Fatalf("AllPairs P(%d,0) = %v", n, p)
		}
		if p := AllPairsPSuccessFloat(n, 1); p != 1 {
			t.Fatalf("AllPairs P(%d,1) = %v", n, p)
		}
	}
}

func TestAllPairsNeverExceedsPair(t *testing.T) {
	for n := 2; n <= 30; n += 3 {
		for f := 0; f <= 10 && f <= 2*n+2; f++ {
			all := AllPairsPSuccess(n, f)
			pair := PSuccess(n, f)
			if all.Cmp(pair) > 0 {
				t.Fatalf("n=%d f=%d: all-pairs %s exceeds pair %s",
					n, f, all.FloatString(6), pair.FloatString(6))
			}
		}
	}
}

func TestAllPairsConvergesToOne(t *testing.T) {
	// Full-cluster survivability also converges to 1 for fixed f, but
	// only at O(f/N): the dominant failing scenarios are "one back
	// plane down plus any surviving-rail NIC", and with a back plane
	// gone there is zero redundancy left. Verify monotonicity and the
	// 1/N decay (failure probability halves when N doubles).
	for f := 2; f <= 6; f++ {
		prev := new(big.Rat)
		for n := f + 1; n <= 200; n += 7 {
			cur := AllPairsPSuccess(n, f)
			if cur.Cmp(prev) < 0 {
				t.Fatalf("all-pairs not monotone at n=%d f=%d", n, f)
			}
			prev = cur
		}
		if p := AllPairsPSuccessFloat(5000, f); p < 0.995 {
			t.Fatalf("AllPairs P(5000,%d) = %v, not converging", f, p)
		}
		fail1 := 1 - AllPairsPSuccessFloat(2000, f)
		fail2 := 1 - AllPairsPSuccessFloat(4000, f)
		if ratio := fail1 / fail2; ratio < 1.8 || ratio > 2.2 {
			t.Fatalf("f=%d: all-pairs failure ratio across N doubling = %v, want ~2", f, ratio)
		}
	}
}

func TestAllPairsSeries(t *testing.T) {
	s := AllPairsSeriesWorkers(3, 4, 20, 1)
	if len(s) != 17 {
		t.Fatalf("len = %d", len(s))
	}
	if s[0] != AllPairsPSuccessFloat(4, 3) {
		t.Fatal("series misaligned")
	}
}

func TestAllPairsPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"n too small": func() { AllPairsSuccessCount(1, 1) },
		"f too large": func() { AllPairsSuccessCount(3, 99) },
		"bad series":  func() { AllPairsSeriesWorkers(2, 9, 3, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkAllPairsPSuccess(b *testing.B) {
	for i := 0; i < b.N; i++ {
		AllPairsPSuccess(63, 10)
	}
}
