// Package survival implements the paper's network survivability model
// (Equation 1): for a cluster of N servers with two NICs each and two
// non-meshed back planes — 2N+2 failure-prone components — and exactly
// f failed components chosen uniformly at random,
//
//	P[Success] = F(N, f) / C(2N+2, f)
//
// where F(N, f) counts the failure scenarios under which a designated
// pair of servers can still communicate, directly on either network or
// through a relay server that the DRS discovers.
//
// The combinatorial expression printed in the paper is typographically
// damaged, so this package re-derives F(N, f) from the system
// definition and validates the reconstruction three ways: a closed
// form evaluated in exact big-integer arithmetic, brute-force
// enumeration of every C(2N+2, f) scenario, and Monte Carlo
// simulation (package montecarlo). All three agree, and the closed
// form reproduces the paper's stated thresholds exactly: P[Success]
// first exceeds 0.99 at N=18 (f=2), N=32 (f=3) and N=45 (f=4).
package survival

import (
	"fmt"
	"math/big"

	"drsnet/internal/parallel"
)

// Binomial returns C(n, k) as a big.Int. It returns zero for k < 0 or
// k > n, which keeps the counting sums below uniform. Values are
// served from a shared Pascal-row cache (see cache.go); the returned
// big.Int is a fresh copy the caller may mutate freely.
func Binomial(n, k int) *big.Int {
	if k < 0 || k > n || n < 0 {
		return new(big.Int)
	}
	return binomialCached(n, k)
}

// hitAllPairs returns the number of s-subsets of the 2p NICs of p
// relay nodes (one NIC per rail per node) that hit every node — i.e.
// leave no relay with both NICs intact. Choosing j = s - p nodes to
// lose both NICs and one of two NICs on each of the remaining p - j
// nodes gives C(p, s-p) · 2^(2p-s); the count is zero unless
// p ≤ s ≤ 2p (with the convention that the empty subset hits all of
// zero nodes).
func hitAllPairs(p, s int) *big.Int {
	if p == 0 {
		if s == 0 {
			return big.NewInt(1)
		}
		return new(big.Int)
	}
	if s < p || s > 2*p {
		return new(big.Int)
	}
	out := Binomial(p, s-p)
	out.Lsh(out, uint(2*p-s))
	return out
}

// patternOutcome classifies one assignment of up/down to the six
// pair-local components (two back planes plus the designated pair's
// four NICs).
type patternOutcome int

const (
	outcomeFail    patternOutcome = iota // pair cannot communicate regardless of relays
	outcomeSuccess                       // pair communicates regardless of relays
	outcomeRelay                         // pair communicates iff some relay keeps both NICs
)

// classifyPattern evaluates the pair-local pattern. Bit assignments:
// 0=backplane0, 1=backplane1, 2=nicA0, 3=nicA1, 4=nicB0, 5=nicB1;
// a set bit means the component failed.
func classifyPattern(bits uint) patternOutcome {
	bpf0 := bits&(1<<0) != 0
	bpf1 := bits&(1<<1) != 0
	a0 := !bpf0 && bits&(1<<2) == 0 // A attached to rail 0
	a1 := !bpf1 && bits&(1<<3) == 0
	b0 := !bpf0 && bits&(1<<4) == 0
	b1 := !bpf1 && bits&(1<<5) == 0
	if (!a0 && !a1) || (!b0 && !b1) {
		return outcomeFail
	}
	if (a0 && b0) || (a1 && b1) {
		return outcomeSuccess
	}
	// Masks are disjoint and nonempty: A is attached to exactly one
	// rail, B to the other, and both back planes are up. Only a relay
	// with both NICs intact can bridge them.
	return outcomeRelay
}

// SuccessCount returns F(N, f): the number of f-subsets of the 2N+2
// components under which the designated pair can still communicate.
// It panics if n < 2 or f is outside [0, 2N+2]. Counts are memoized
// (see cache.go); the returned big.Int is a fresh copy the caller may
// mutate freely.
func SuccessCount(n, f int) *big.Int {
	checkArgs(n, f)
	return new(big.Int).Set(cache.successCount(n, f))
}

// checkArgs enforces the model's domain: n ≥ 2 and 0 ≤ f ≤ 2n+2.
func checkArgs(n, f int) {
	if n < 2 {
		panic(fmt.Sprintf("survival: need n >= 2, have %d", n))
	}
	if m := 2*n + 2; f < 0 || f > m {
		panic(fmt.Sprintf("survival: f=%d outside [0,%d]", f, m))
	}
}

// successCountRaw computes F(N, f) from scratch — the uncached closed
// form behind SuccessCount, kept separate so tests can pit the memo
// against a fresh evaluation.
func successCountRaw(n, f int) *big.Int {
	checkArgs(n, f)
	relayNICs := 2*n - 4 // NICs on the N-2 non-designated nodes
	total := new(big.Int)
	for bits := uint(0); bits < 64; bits++ {
		k := popcount6(bits)
		rem := f - k
		if rem < 0 || rem > relayNICs {
			continue
		}
		switch classifyPattern(bits) {
		case outcomeFail:
			// contributes nothing
		case outcomeSuccess:
			total.Add(total, Binomial(relayNICs, rem))
		case outcomeRelay:
			// Success unless the remaining failures hit every relay.
			ways := Binomial(relayNICs, rem)
			ways.Sub(ways, hitAllPairs(n-2, rem))
			total.Add(total, ways)
		}
	}
	return total
}

func popcount6(bits uint) int {
	n := 0
	for b := bits; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// TotalCount returns C(2N+2, f), the number of equally likely failure
// scenarios (the denominator of Equation 1).
func TotalCount(n, f int) *big.Int {
	return Binomial(2*n+2, f)
}

// PSuccess returns Equation 1 exactly: F(N,f) / C(2N+2, f).
// It panics under the same conditions as SuccessCount.
func PSuccess(n, f int) *big.Rat {
	num := SuccessCount(n, f)
	den := TotalCount(n, f)
	if den.Sign() == 0 {
		panic(fmt.Sprintf("survival: no scenarios for n=%d f=%d", n, f))
	}
	return new(big.Rat).SetFrac(num, den)
}

// PSuccessFloat returns Equation 1 as a float64.
func PSuccessFloat(n, f int) float64 {
	v, _ := PSuccess(n, f).Float64()
	return v
}

// SeriesWorkers returns PSuccessFloat(n, f) for n = nMin..nMax
// inclusive — one curve of the paper's Figure 2 — computed by the
// parallel sweep engine with the given worker count (0 = GOMAXPROCS). Every point is an
// independent exact evaluation written into its own slot, so the
// result is bit-identical for every worker count.
func SeriesWorkers(f, nMin, nMax, workers int) []float64 {
	if nMin < 2 || nMax < nMin {
		panic(fmt.Sprintf("survival: bad series range [%d,%d]", nMin, nMax))
	}
	out := make([]float64, nMax-nMin+1)
	_ = parallel.ForEach(nil, workers, len(out), func(i int) error {
		out[i] = PSuccessFloat(nMin+i, f)
		return nil
	})
	return out
}

// Threshold returns the smallest N in [nMin, nMax] for which
// P[Success](N, f) exceeds target, using exact rational comparison.
// It returns an error if no N in the range qualifies.
//
// The paper's stated thresholds for target 0.99 are N=18 (f=2),
// N=32 (f=3) and N=45 (f=4); tests assert this function reproduces
// them.
func Threshold(f int, target *big.Rat, nMin, nMax int) (int, error) {
	if nMin < 2 {
		nMin = 2
	}
	for n := nMin; n <= nMax; n++ {
		if 2*n+2 < f {
			continue // not enough components to fail
		}
		if PSuccess(n, f).Cmp(target) > 0 {
			return n, nil
		}
	}
	return 0, fmt.Errorf("survival: P[Success] does not exceed %s for f=%d with N ≤ %d",
		target.FloatString(4), f, nMax)
}

// ThresholdFloat is Threshold with a float64 target, converted exactly.
func ThresholdFloat(f int, target float64, nMin, nMax int) (int, error) {
	r := new(big.Rat)
	if r.SetFloat64(target) == nil {
		return 0, fmt.Errorf("survival: target %v is not finite", target)
	}
	return Threshold(f, r, nMin, nMax)
}
