// Package drsnet is a library reproduction of the Dynamic Routing
// System (DRS) and its network survivability study:
//
//	Chowdhury, Frieder, Luse, Wan. "Network Survivability Simulation
//	of a Commercially Deployed Dynamic Routing System Protocol."
//	IPDPS 2000 Workshops, LNCS 1800, pp. 181–185.
//
// The DRS is a proactive failover protocol for server clusters in
// which every server has two NICs on two separate shared networks.
// Daemons continuously ICMP-probe every peer on every network; when a
// link check fails they install a route around the fault — the second
// rail, or a relay server found by broadcast — before applications
// notice.
//
// The package exposes the three layers of the paper:
//
//   - the analytic survivability model (Equation 1): PSuccess,
//     SurvivabilityThreshold, SimulateSurvivability;
//   - the proactive monitoring cost model (Figure 1): CostModel;
//   - the running protocol on a deterministic packet-level cluster
//     simulation: Cluster, and the recovery experiment
//     CompareProtocols.
//
// Implementation detail lives in internal/ packages; see DESIGN.md for
// the system inventory and EXPERIMENTS.md for paper-vs-measured
// results.
package drsnet

import (
	"fmt"
	"math/big"
	"time"

	"drsnet/internal/costmodel"
	"drsnet/internal/failure"
	"drsnet/internal/montecarlo"
	"drsnet/internal/survival"
	"drsnet/internal/topology"
)

// ---------------------------------------------------------------
// Survivability analytics (the paper's Equation 1, Figure 2).

// PSuccess returns the probability that a designated pair of servers
// in an n-node dual-rail cluster can still communicate when exactly f
// of the 2n+2 components (2n NICs + 2 back planes) have failed,
// assuming all failure combinations are equally likely and DRS routing
// (direct on either rail, or through any relay server).
//
// This is the paper's Equation 1, evaluated exactly and rounded once.
func PSuccess(n, f int) float64 {
	return survival.PSuccessFloat(n, f)
}

// PSuccessExact returns Equation 1 as an exact rational.
func PSuccessExact(n, f int) *big.Rat {
	return survival.PSuccess(n, f)
}

// SurvivabilityThreshold returns the smallest cluster size N ≤ maxN at
// which PSuccess(N, f) exceeds target. For target 0.99 the paper
// reports 18 (f=2), 32 (f=3) and 45 (f=4), which this function
// reproduces exactly.
func SurvivabilityThreshold(f int, target float64, maxN int) (int, error) {
	return survival.ThresholdFloat(f, target, 2, maxN)
}

// SurvivabilitySeries returns PSuccess(n, f) for n = f+1 .. maxN —
// one curve of the paper's Figure 2.
func SurvivabilitySeries(f, maxN int) []float64 {
	return survival.SeriesWorkers(f, f+1, maxN, 1)
}

// SimulateSurvivability estimates PSuccess(n, f) by Monte Carlo
// simulation with the given iteration count and seed, using all CPUs;
// results are deterministic for a seed regardless of parallelism. It
// returns the estimate and a 95% confidence half-width. This is the
// simulation the paper uses to validate Equation 1 (Figure 3).
func SimulateSurvivability(n, f int, iterations int64, seed uint64) (p, ci95 float64, err error) {
	res, err := montecarlo.Estimate(montecarlo.Config{
		Cluster:    topology.Dual(n),
		Failures:   f,
		Iterations: iterations,
		Seed:       seed,
	})
	if err != nil {
		return 0, 0, err
	}
	return res.P, res.CI95, nil
}

// ---------------------------------------------------------------
// Proactive monitoring cost (the paper's Figure 1).

// CostModel quantifies the bandwidth price of proactive link checking
// on a shared-medium network.
type CostModel struct {
	// LinkRateBits is each network's capacity in bits/s
	// (default 100 Mb/s, the paper's network).
	LinkRateBits float64
	// ProbeFrameBytes is the on-wire size of one probe frame
	// (default 84: a minimum Ethernet frame plus preamble and gap).
	ProbeFrameBytes int
}

func (c CostModel) params() costmodel.Params {
	p := costmodel.Defaults()
	if c.LinkRateBits > 0 {
		p.LinkRate = c.LinkRateBits
	}
	if c.ProbeFrameBytes > 0 {
		p.FrameBytes = c.ProbeFrameBytes
	}
	return p
}

// ResponseTime returns the time to complete one full round of link
// checks on an n-node cluster when probing may use at most budget
// (a fraction in (0,1]) of each network's bandwidth — the system's
// error-detection latency, the y-axis of Figure 1.
func (c CostModel) ResponseTime(n int, budget float64) (time.Duration, error) {
	rt, err := c.params().ResponseTime(n, budget)
	if err != nil {
		return 0, err
	}
	return time.Duration(rt * float64(time.Second)), nil
}

// MaxNodes returns the largest cluster whose check round completes
// within responseTime at the given bandwidth budget. The paper:
// "ninety hosts are supported in less than 1 second with only 10% of
// the bandwidth usage."
func (c CostModel) MaxNodes(budget float64, responseTime time.Duration) (int, error) {
	return c.params().MaxNodes(budget, responseTime.Seconds())
}

// Overhead returns the fraction of bandwidth consumed when an n-node
// cluster must detect failures within responseTime.
func (c CostModel) Overhead(n int, responseTime time.Duration) (float64, error) {
	return c.params().Overhead(n, responseTime.Seconds())
}

// ---------------------------------------------------------------
// Fleet failure statistics (the paper's 13% motivation).

// FleetStats summarizes a synthetic one-year hardware failure log.
type FleetStats struct {
	Servers         int
	Days            int
	TotalFailures   int
	NetworkFailures int
	NetworkFraction float64
}

// SimulateFleet regenerates the paper's motivating statistic: a
// hardware failure log for a fleet of servers in which network
// components (NICs, hubs, cabling) account for ≈13% of failures.
func SimulateFleet(servers, days int, seed uint64) (FleetStats, error) {
	cfg := failure.DefaultFleetConfig()
	cfg.Servers = servers
	cfg.Days = days
	cfg.Seed = seed
	log, err := failure.GenerateFleetLog(cfg)
	if err != nil {
		return FleetStats{}, err
	}
	s := log.Summary()
	return FleetStats{
		Servers:         servers,
		Days:            days,
		TotalFailures:   s.Total,
		NetworkFailures: s.Network,
		NetworkFraction: s.NetworkFraction,
	}, nil
}

// validateClusterSize is shared by the cluster simulation constructors.
func validateClusterSize(n int) error {
	if n < 2 {
		return fmt.Errorf("drsnet: a cluster needs at least 2 servers, have %d", n)
	}
	if n > 1<<15 {
		return fmt.Errorf("drsnet: cluster size %d unreasonably large", n)
	}
	return nil
}
