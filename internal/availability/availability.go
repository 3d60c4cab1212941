// Package availability extends the paper's conditional survivability
// model (Equation 1: "given exactly f failures") to the unconditional,
// time-based questions an operator actually asks:
//
//   - If every component is independently down with probability q —
//     the steady state of an MTBF/MTTR repair process — what fraction
//     of the time can the pair (or the whole cluster) communicate?
//   - Adding the DRS's detection window (failures cost a few probe
//     intervals of outage even when an alternative path exists), what
//     effective availability does an application see?
//
// The paper itself motivates this view: it introduces a per-component
// failure probability q and argues multi-failure scenarios decay as
// q^f. Here the mixture is carried out exactly over Equation 1's
// closed-form counts.
package availability

import (
	"fmt"
	"math"
	"math/big"
	"time"

	"drsnet/internal/conn"
	"drsnet/internal/rng"
	"drsnet/internal/stats"
	"drsnet/internal/survival"
	"drsnet/internal/topology"
)

// SteadyStateQ returns the steady-state probability that a component
// with the given mean time between failures and mean time to repair is
// down at a random instant: MTTR / (MTBF + MTTR).
func SteadyStateQ(mtbf, mttr time.Duration) (float64, error) {
	if mtbf <= 0 || mttr < 0 {
		return 0, fmt.Errorf("availability: MTBF must be positive and MTTR non-negative")
	}
	return float64(mttr) / float64(mtbf+mttr), nil
}

// PSuccessIID returns the probability that the designated pair can
// communicate when every one of the 2n+2 components is independently
// failed with probability q:
//
//	Σ_f  q^f (1-q)^(2n+2-f) · F(n, f)
//
// with F the closed-form success count behind Equation 1.
func PSuccessIID(n int, q float64) (float64, error) {
	return iidMixture(n, q, survival.SuccessCount)
}

// AllPairsIID is PSuccessIID for full-cluster survivability (every
// pair must communicate).
func AllPairsIID(n int, q float64) (float64, error) {
	return iidMixture(n, q, survival.AllPairsSuccessCount)
}

func iidMixture(n int, q float64, count func(n, f int) *big.Int) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("availability: need n >= 2, have %d", n)
	}
	if math.IsNaN(q) || q < 0 || q > 1 {
		return 0, fmt.Errorf("availability: q=%v outside [0,1]", q)
	}
	m := 2*n + 2
	if q == 0 {
		// Only the failure-free scenario has weight; it always
		// succeeds (F(n,0) = 1).
		return 1, nil
	}
	if q == 1 {
		// Everything is down.
		return 0, nil
	}
	lq := math.Log(q)
	l1q := math.Log1p(-q)
	total := 0.0
	for f := 0; f <= m; f++ {
		c := count(n, f)
		if c.Sign() == 0 {
			continue
		}
		cf, _ := new(big.Float).SetInt(c).Float64()
		total += math.Exp(math.Log(cf) + float64(f)*lq + float64(m-f)*l1q)
	}
	if total > 1 {
		total = 1 // guard against last-ulp drift
	}
	return total, nil
}

// EstimateIID is the Monte Carlo counterpart of PSuccessIID (or, with
// allPairs, of AllPairsIID): sample every component independently down
// with probability q and evaluate connectivity. It returns the
// estimate and a 95% confidence half-width; results are deterministic
// for a seed.
func EstimateIID(n int, q float64, allPairs bool, iterations int64, seed uint64) (p, ci95 float64, err error) {
	if n < 2 {
		return 0, 0, fmt.Errorf("availability: need n >= 2, have %d", n)
	}
	if math.IsNaN(q) || q < 0 || q > 1 {
		return 0, 0, fmt.Errorf("availability: q=%v outside [0,1]", q)
	}
	if iterations <= 0 {
		return 0, 0, fmt.Errorf("availability: iterations must be positive")
	}
	cluster := topology.Dual(n)
	eval, err := conn.NewEvaluator(cluster)
	if err != nil {
		return 0, 0, err
	}
	r := rng.New(seed)
	bern := rng.NewBernoulli(q)
	m := cluster.Components()
	failed := make([]topology.Component, 0, m)
	var successes int64
	for i := int64(0); i < iterations; i++ {
		failed = rng.AppendBernoulli(r, &bern, failed[:0], m)
		ok := false
		if allPairs {
			ok = eval.AllConnected(failed)
		} else {
			ok = eval.PairConnected(failed, 0, 1)
		}
		if ok {
			successes++
		}
	}
	p = float64(successes) / float64(iterations)
	return p, stats.BernoulliCI(successes, iterations, 1.96), nil
}

// Params describes an operating regime for effective-availability
// estimates.
type Params struct {
	// Nodes is the cluster size.
	Nodes int
	// MTBF and MTTR characterize each component's failure/repair
	// process.
	MTBF, MTTR time.Duration
	// RepairWindow is the DRS's failure-to-reroute latency
	// (≈ miss-threshold × probe interval plus the discovery exchange).
	RepairWindow time.Duration
}

func (p Params) validate() error {
	if p.Nodes < 2 {
		return fmt.Errorf("availability: need ≥ 2 nodes, have %d", p.Nodes)
	}
	if p.MTBF <= 0 || p.MTTR < 0 || p.RepairWindow < 0 {
		return fmt.Errorf("availability: MTBF must be positive; MTTR and repair window non-negative")
	}
	if p.RepairWindow > p.MTBF/10 {
		return fmt.Errorf("availability: repair window %v too close to MTBF %v for the first-order model",
			p.RepairWindow, p.MTBF)
	}
	return nil
}

// Result is an effective-availability estimate.
type Result struct {
	// Q is the steady-state per-component unavailability.
	Q float64
	// Structural is the pair availability with instantaneous rerouting
	// (PSuccessIID): the limit a perfect protocol approaches.
	Structural float64
	// DetectionPenalty is the first-order availability loss from the
	// DRS's repair window: the pair's active path crosses three
	// components (two NICs and a back plane), each failing at rate
	// 1/MTBF, and each such failure blinds the flow for RepairWindow.
	DetectionPenalty float64
	// Effective is Structural − DetectionPenalty, floored at 0.
	Effective float64
}

// Effective computes the first-order effective pair availability of a
// DRS cluster in the given regime.
func Effective(p Params) (Result, error) {
	if err := p.validate(); err != nil {
		return Result{}, err
	}
	q, err := SteadyStateQ(p.MTBF, p.MTTR)
	if err != nil {
		return Result{}, err
	}
	structural, err := PSuccessIID(p.Nodes, q)
	if err != nil {
		return Result{}, err
	}
	// Active-path components: src NIC, dst NIC, shared back plane.
	const activePathComponents = 3
	penalty := activePathComponents * p.RepairWindow.Seconds() / p.MTBF.Seconds()
	eff := structural - penalty
	if eff < 0 {
		eff = 0
	}
	return Result{
		Q:                q,
		Structural:       structural,
		DetectionPenalty: penalty,
		Effective:        eff,
	}, nil
}

// Nines returns the whole number of nines in an availability a
// (0.999 → 3). It returns 0 for a ≤ 0.9 and caps at 9 for a == 1.
func Nines(a float64) int {
	if a >= 1 {
		return 9
	}
	if a <= 0.9 {
		if a >= 0.9 {
			return 1
		}
		return 0
	}
	// The epsilon absorbs float representation error in 1-a (e.g.
	// 1-0.999 = 0.0010000000000000000208…).
	n := int(-math.Log10(1-a) + 1e-9)
	if n > 9 {
		n = 9
	}
	return n
}

// DowntimePerYear converts an unavailability into expected downtime
// per (365-day) year.
func DowntimePerYear(unavailability float64) time.Duration {
	if unavailability < 0 {
		unavailability = 0
	}
	if unavailability > 1 {
		unavailability = 1
	}
	year := 365 * 24 * time.Hour
	return time.Duration(unavailability * float64(year))
}
