package survival

import (
	"fmt"
	"math/big"

	"drsnet/internal/parallel"
)

// AllPairsSuccessCount returns the number of f-subsets of the 2N+2
// components under which EVERY pair of servers can still communicate —
// full cluster survivability, a strictly stronger criterion than the
// designated-pair model of Equation 1. (The paper evaluates the pair
// model; this closed form is this reproduction's extension, validated
// against brute-force enumeration.)
//
// Derivation (dual rail). Condition on the back planes:
//
//   - Both up: the f failures all hit NICs. Assign each failed NIC to
//     its node: a node may lose its rail-1 NIC (attached to rail 0
//     only), its rail-0 NIC (rail 1 only), or both (detached — the
//     cluster fails). With no detached nodes the failed NICs sit on f
//     distinct nodes with a binary rail choice each: C(N,f)·2^f
//     assignments. All pairs communicate unless both single-rail
//     groups are nonempty while no intact node bridges them, which
//     requires f = N; the 2^N − 2 mixed assignments are then
//     unsurvivable.
//   - Exactly one back plane down (two ways): all communication rides
//     the surviving rail, so every node's NIC there must be intact:
//     the remaining f−1 failures must all hit the dead rail's N NICs —
//     C(N, f−1) subsets.
//   - Both down: no communication at all.
//
// Counts are memoized (see cache.go); the returned big.Int is a fresh
// copy the caller may mutate freely.
func AllPairsSuccessCount(n, f int) *big.Int {
	checkArgs(n, f)
	return new(big.Int).Set(cache.allPairsCount(n, f))
}

// allPairsSuccessCountRaw computes the count from scratch — the
// uncached closed form behind AllPairsSuccessCount.
func allPairsSuccessCountRaw(n, f int) *big.Int {
	checkArgs(n, f)
	total := new(big.Int)

	// Both back planes up.
	if f <= n {
		bothUp := Binomial(n, f)
		bothUp.Lsh(bothUp, uint(f)) // × 2^f rail assignments
		if f == n && n >= 1 {
			// Remove assignments with both rails represented: all
			// 2^N except the two monochrome ones.
			mixed := new(big.Int).Lsh(big.NewInt(1), uint(n))
			mixed.Sub(mixed, big.NewInt(2))
			bothUp.Sub(bothUp, mixed)
		}
		total.Add(total, bothUp)
	}

	// Exactly one back plane down (×2 by symmetry).
	if f >= 1 && f-1 <= n {
		oneDown := Binomial(n, f-1)
		oneDown.Lsh(oneDown, 1) // ×2
		total.Add(total, oneDown)
	}

	return total
}

// AllPairsPSuccess returns the probability that every pair of servers
// can communicate under exactly f uniform component failures.
func AllPairsPSuccess(n, f int) *big.Rat {
	den := TotalCount(n, f)
	if den.Sign() == 0 {
		panic(fmt.Sprintf("survival: no scenarios for n=%d f=%d", n, f))
	}
	return new(big.Rat).SetFrac(AllPairsSuccessCount(n, f), den)
}

// AllPairsPSuccessFloat is AllPairsPSuccess as a float64.
func AllPairsPSuccessFloat(n, f int) float64 {
	v, _ := AllPairsPSuccess(n, f).Float64()
	return v
}

// AllPairsSeriesWorkers returns AllPairsPSuccessFloat(n, f) for
// n = nMin..nMax, computed by the parallel sweep engine with the given
// worker count (0 = GOMAXPROCS); the result is bit-identical for every
// worker count.
func AllPairsSeriesWorkers(f, nMin, nMax, workers int) []float64 {
	if nMin < 2 || nMax < nMin {
		panic(fmt.Sprintf("survival: bad series range [%d,%d]", nMin, nMax))
	}
	out := make([]float64, nMax-nMin+1)
	_ = parallel.ForEach(nil, workers, len(out), func(i int) error {
		out[i] = AllPairsPSuccessFloat(nMin+i, f)
		return nil
	})
	return out
}
