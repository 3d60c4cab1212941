package survival

import (
	"math/big"
	"testing"
	"testing/quick"

	"drsnet/internal/topology"
)

func TestBinomial(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1}, {5, 0, 1}, {5, 5, 1}, {5, 2, 10}, {38, 2, 703},
		{5, 6, 0}, {5, -1, 0}, {-1, 0, 0},
	}
	for _, tc := range cases {
		if got := Binomial(tc.n, tc.k); got.Int64() != tc.want {
			t.Errorf("Binomial(%d,%d) = %v, want %d", tc.n, tc.k, got, tc.want)
		}
	}
}

func TestBinomialPascal(t *testing.T) {
	err := quick.Check(func(n8, k8 uint8) bool {
		n := int(n8%40) + 1
		k := int(k8) % (n + 1)
		// C(n,k) = C(n-1,k-1) + C(n-1,k)
		lhs := Binomial(n, k)
		rhs := new(big.Int).Add(Binomial(n-1, k-1), Binomial(n-1, k))
		return lhs.Cmp(rhs) == 0
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestHitAllPairs(t *testing.T) {
	// p=2 relay nodes (4 NICs). Subsets of size 2 hitting both nodes:
	// one NIC from each node: 2*2 = 4.
	if got := hitAllPairs(2, 2); got.Int64() != 4 {
		t.Fatalf("hitAllPairs(2,2) = %v, want 4", got)
	}
	// size 3: one node loses both, the other loses one: C(2,1)*2 = 4.
	if got := hitAllPairs(2, 3); got.Int64() != 4 {
		t.Fatalf("hitAllPairs(2,3) = %v, want 4", got)
	}
	// size 4: everything fails: 1 way.
	if got := hitAllPairs(2, 4); got.Int64() != 1 {
		t.Fatalf("hitAllPairs(2,4) = %v, want 1", got)
	}
	// too few to hit every node
	if got := hitAllPairs(3, 2); got.Sign() != 0 {
		t.Fatalf("hitAllPairs(3,2) = %v, want 0", got)
	}
	// empty relay pool
	if got := hitAllPairs(0, 0); got.Int64() != 1 {
		t.Fatalf("hitAllPairs(0,0) = %v, want 1", got)
	}
	if got := hitAllPairs(0, 1); got.Sign() != 0 {
		t.Fatalf("hitAllPairs(0,1) = %v, want 0", got)
	}
}

func TestHitAllPairsByEnumeration(t *testing.T) {
	// Exhaustively verify against direct subset enumeration for small p.
	for p := 1; p <= 4; p++ {
		for s := 0; s <= 2*p; s++ {
			count := 0
			forEachSubset(2*p, s, func(idx []int) {
				nodeHit := make([]bool, p)
				for _, v := range idx {
					nodeHit[v/2] = true
				}
				all := true
				for _, h := range nodeHit {
					all = all && h
				}
				if all {
					count++
				}
			})
			if got := hitAllPairs(p, s); got.Int64() != int64(count) {
				t.Errorf("hitAllPairs(%d,%d) = %v, enumeration says %d", p, s, got, count)
			}
		}
	}
}

func TestTrivialProbabilities(t *testing.T) {
	for n := 2; n <= 20; n++ {
		if p := PSuccessFloat(n, 0); p != 1 {
			t.Fatalf("P(%d,0) = %v, want 1", n, p)
		}
		// Any single component failure leaves the other rail intact.
		if p := PSuccessFloat(n, 1); p != 1 {
			t.Fatalf("P(%d,1) = %v, want 1", n, p)
		}
		// Killing every component certainly severs the pair.
		if p := PSuccessFloat(n, 2*n+2); p != 0 {
			t.Fatalf("P(%d,all) = %v, want 0", n, p)
		}
	}
}

func TestPaperHeadlineValues(t *testing.T) {
	// f=2 at N=18: exactly 7 of the C(38,2)=703 scenarios sever the
	// pair (both backplanes; A's NIC pair; B's NIC pair; one backplane
	// plus the opposite-rail NIC of A or of B).
	p := PSuccess(18, 2)
	want := new(big.Rat).SetFrac64(703-7, 703)
	if p.Cmp(want) != 0 {
		t.Fatalf("P(18,2) = %s, want %s", p.FloatString(6), want.FloatString(6))
	}
	if f := PSuccessFloat(18, 2); f < 0.99 {
		t.Fatalf("P(18,2) = %v, want > 0.99", f)
	}
	if f := PSuccessFloat(17, 2); f >= 0.99 {
		t.Fatalf("P(17,2) = %v, want < 0.99", f)
	}
}

func TestPaperThresholds(t *testing.T) {
	target := new(big.Rat).SetFrac64(99, 100)
	for _, tc := range []struct{ f, wantN int }{
		{2, 18}, // paper: "for f=2 the P[S] surpasses 0.99 at 18 nodes"
		{3, 32}, // paper: at 32 nodes
		{4, 45}, // paper: at 45 nodes
	} {
		n, err := Threshold(tc.f, target, 2, 100)
		if err != nil {
			t.Fatalf("Threshold(f=%d): %v", tc.f, err)
		}
		if n != tc.wantN {
			t.Errorf("Threshold(f=%d) = %d, want %d (paper)", tc.f, n, tc.wantN)
		}
	}
}

func TestThresholdNotFound(t *testing.T) {
	target := new(big.Rat).SetFrac64(99, 100)
	if _, err := Threshold(9, target, 2, 20); err == nil {
		t.Fatal("expected no threshold for f=9 below N=20")
	}
}

func TestThresholdFloat(t *testing.T) {
	n, err := ThresholdFloat(2, 0.99, 2, 100)
	if err != nil || n != 18 {
		t.Fatalf("ThresholdFloat = %d, %v; want 18", n, err)
	}
}

func TestClosedFormMatchesEnumeration(t *testing.T) {
	// The decisive validation: the closed form must equal brute-force
	// enumeration of every scenario for every small (N, f).
	for n := 2; n <= 8; n++ {
		m := 2*n + 2
		maxF := 6
		if maxF > m {
			maxF = m
		}
		for f := 0; f <= maxF; f++ {
			succ, tot, err := enumeratePair(topology.Dual(n), f, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if want := TotalCount(n, f); tot.Cmp(want) != 0 {
				t.Fatalf("n=%d f=%d: enumerated %v scenarios, want %v", n, f, tot, want)
			}
			if got := SuccessCount(n, f); got.Cmp(succ) != 0 {
				t.Errorf("n=%d f=%d: closed form F=%v, enumeration says %v", n, f, got, succ)
			}
		}
	}
}

func TestClosedFormMatchesEnumerationHighF(t *testing.T) {
	// Deep failure counts exercise the relay-exhaustion term (f ≥ N).
	for n := 2; n <= 5; n++ {
		m := 2*n + 2
		for f := 0; f <= m; f++ {
			succ, _, err := enumeratePair(topology.Dual(n), f, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got := SuccessCount(n, f); got.Cmp(succ) != 0 {
				t.Errorf("n=%d f=%d: closed form F=%v, enumeration says %v", n, f, got, succ)
			}
		}
	}
}

func TestPairChoiceIrrelevantBySymmetry(t *testing.T) {
	// The model designates nodes 0 and 1, but any pair must give the
	// same count by symmetry.
	c := topology.Dual(5)
	ref, _, err := enumeratePair(c, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]int{{0, 2}, {1, 4}, {2, 3}} {
		got, _, err := enumeratePair(c, 3, pair[0], pair[1])
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(ref) != 0 {
			t.Errorf("pair %v count %v differs from pair (0,1) count %v", pair, got, ref)
		}
	}
}

func TestMonotoneInN(t *testing.T) {
	// For fixed f, adding nodes only adds relays: P must not decrease.
	for f := 2; f <= 6; f++ {
		prev := PSuccess(f+1, f)
		for n := f + 2; n <= 64; n++ {
			cur := PSuccess(n, f)
			if cur.Cmp(prev) < 0 {
				t.Fatalf("P not monotone: P(%d,%d)=%s < P(%d,%d)=%s",
					n, f, cur.FloatString(8), n-1, f, prev.FloatString(8))
			}
			prev = cur
		}
	}
}

func TestMonotoneInF(t *testing.T) {
	// For fixed N, more failures cannot help.
	for n := 4; n <= 24; n += 5 {
		prev := PSuccess(n, 0)
		for f := 1; f <= 10 && f <= 2*n+2; f++ {
			cur := PSuccess(n, f)
			if cur.Cmp(prev) > 0 {
				t.Fatalf("P not monotone in f at n=%d f=%d", n, f)
			}
			prev = cur
		}
	}
}

func TestConvergesToOne(t *testing.T) {
	// Figure 2's claim: lim N→∞ P[Success] = 1 for fixed f. The
	// failure probability is dominated by the seven pair-local 2-cuts,
	// so it decays like f(f-1)/(2N)²: quadrupling under a doubling of N.
	for f := 2; f <= 10; f++ {
		if p := PSuccessFloat(2000, f); p < 0.9999 {
			t.Errorf("P(2000,%d) = %v, not converging to 1", f, p)
		}
		fail1 := 1 - PSuccessFloat(1000, f)
		fail2 := 1 - PSuccessFloat(2000, f)
		if ratio := fail1 / fail2; ratio < 3.5 || ratio > 4.5 {
			t.Errorf("f=%d: failure probability ratio across N doubling = %v, want ~4", f, ratio)
		}
	}
	// And convergence is visibly progressing along the curve.
	if !(PSuccessFloat(60, 3) > PSuccessFloat(10, 3)) {
		t.Error("expected P(60,3) > P(10,3)")
	}
}

func TestSeries(t *testing.T) {
	s := SeriesWorkers(2, 3, 63, 1)
	if len(s) != 61 {
		t.Fatalf("series length %d, want 61", len(s))
	}
	if s[15] != PSuccessFloat(18, 2) {
		t.Fatal("series misaligned")
	}
	for i, p := range s {
		if p < 0 || p > 1 {
			t.Fatalf("series[%d] = %v outside [0,1]", i, p)
		}
	}
}

func TestSeriesPanicsOnBadRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SeriesWorkers(2, 10, 5, 1) did not panic")
		}
	}()
	SeriesWorkers(2, 10, 5, 1)
}

func TestPSuccessPanicsOutOfRange(t *testing.T) {
	for name, fn := range map[string]func(){
		"n too small": func() { SuccessCount(1, 0) },
		"f negative":  func() { SuccessCount(4, -1) },
		"f too large": func() { SuccessCount(4, 11) },
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

func TestEnumerateAllPairsStricter(t *testing.T) {
	// Full-cluster survivability is a subset of pair survivability.
	c := topology.Dual(5)
	for f := 0; f <= 4; f++ {
		all, tot1, err := enumerateAllPairs(c, f)
		if err != nil {
			t.Fatal(err)
		}
		pair, tot2, err := enumeratePair(c, f, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if tot1.Cmp(tot2) != 0 {
			t.Fatal("scenario totals differ")
		}
		if all.Cmp(pair) > 0 {
			t.Fatalf("f=%d: all-pairs count %v exceeds pair count %v", f, all, pair)
		}
	}
}

func TestForEachSubsetCounts(t *testing.T) {
	for n := 0; n <= 8; n++ {
		for k := 0; k <= n; k++ {
			count := 0
			seen := map[string]bool{}
			forEachSubset(n, k, func(idx []int) {
				count++
				key := ""
				prev := -1
				for _, v := range idx {
					if v <= prev || v < 0 || v >= n {
						t.Fatalf("subset not ascending/in-range: %v", idx)
					}
					prev = v
					key += string(rune('a' + v))
				}
				if seen[key] {
					t.Fatalf("duplicate subset %v", idx)
				}
				seen[key] = true
			})
			if want := Binomial(n, k).Int64(); int64(count) != want {
				t.Fatalf("forEachSubset(%d,%d) visited %d, want %d", n, k, count, want)
			}
		}
	}
}

func TestEnumerateRejectsBadF(t *testing.T) {
	if _, _, err := enumeratePair(topology.Dual(3), 99, 0, 1); err == nil {
		t.Fatal("oversized f accepted")
	}
	if _, _, err := enumerateAllPairs(topology.Dual(3), -1); err == nil {
		t.Fatal("negative f accepted")
	}
}

func BenchmarkPSuccess(b *testing.B) {
	for i := 0; i < b.N; i++ {
		PSuccess(63, 10)
	}
}

func BenchmarkSeriesF4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		SeriesWorkers(4, 5, 63, 1)
	}
}
