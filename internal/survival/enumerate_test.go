package survival

import (
	"fmt"
	"math/big"

	"drsnet/internal/conn"
	"drsnet/internal/topology"
)

// enumeratePair counts, by brute force, the failure scenarios of size
// f under which nodes a and b can communicate in cluster c. It visits
// every one of the C(|components|, f) subsets, so it is exponential —
// use it as the gold standard for validating the closed form and the
// Monte Carlo estimator on small systems.
func enumeratePair(c topology.Cluster, f, a, b int) (success, total *big.Int, err error) {
	e, err := conn.NewEvaluator(c)
	if err != nil {
		return nil, nil, err
	}
	m := c.Components()
	if f < 0 || f > m {
		return nil, nil, fmt.Errorf("survival: f=%d outside [0,%d]", f, m)
	}
	succ := 0
	tot := 0
	failed := make([]topology.Component, f)
	forEachSubset(m, f, func(idx []int) {
		for i, v := range idx {
			failed[i] = topology.Component(v)
		}
		tot++
		if e.PairConnected(failed[:len(idx)], a, b) {
			succ++
		}
	})
	return big.NewInt(int64(succ)), big.NewInt(int64(tot)), nil
}

// enumerateAllPairs counts the failure scenarios of size f under which
// EVERY pair of nodes in cluster c can communicate (full cluster
// survivability, a strictly stronger criterion than the paper's
// designated-pair model).
func enumerateAllPairs(c topology.Cluster, f int) (success, total *big.Int, err error) {
	e, err := conn.NewEvaluator(c)
	if err != nil {
		return nil, nil, err
	}
	m := c.Components()
	if f < 0 || f > m {
		return nil, nil, fmt.Errorf("survival: f=%d outside [0,%d]", f, m)
	}
	succ := 0
	tot := 0
	failed := make([]topology.Component, f)
	forEachSubset(m, f, func(idx []int) {
		for i, v := range idx {
			failed[i] = topology.Component(v)
		}
		tot++
		if e.AllConnected(failed[:len(idx)]) {
			succ++
		}
	})
	return big.NewInt(int64(succ)), big.NewInt(int64(tot)), nil
}

// forEachSubset invokes fn once for every k-subset of [0, n), passing
// the chosen indices in ascending order. The slice passed to fn is
// reused between calls.
func forEachSubset(n, k int, fn func(idx []int)) {
	if k == 0 {
		fn(nil)
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		fn(idx)
		// Advance to the next combination in lexicographic order.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
