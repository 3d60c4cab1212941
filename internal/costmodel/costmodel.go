// Package costmodel quantifies the price of the DRS's proactive
// monitoring, reproducing the paper's Figure 1 ("Response Time VS
// Number of Nodes for a 100 Mb/s Network").
//
// To find errors before they affect applications, every DRS daemon
// continuously link-checks every monitored peer on every rail with
// ICMP echo requests. The bandwidth devoted to those checks is capped
// at a fraction of the link rate; the time to complete one full round
// of checks is then the system's error-detection response time. As the
// cluster grows the number of pairwise checks grows quadratically, so
// for a fixed bandwidth budget the response time grows quadratically —
// the trade-off Figure 1 plots. The paper's headline: ninety hosts are
// supported in under one second using only 10% of the bandwidth.
package costmodel

import (
	"fmt"
	"math"
)

// Default wire parameters. A minimum-size Ethernet frame comfortably
// carries an ICMP echo (14 MAC + 20 IP + 8 ICMP + payload + 4 FCS ≤ 64
// bytes); on the wire it also occupies 8 preamble bytes and a 12-byte
// inter-frame gap.
const (
	DefaultLinkRate   = 100e6 // bits/s, the paper's 100 Mb/s network
	DefaultFrameBytes = 84    // 64-byte minimum frame + preamble + IFG
)

// Params configures the probing cost model. The model prices the DRS
// daemon's one probing policy: every unordered pair of hosts shares one
// echo exchange per rail per round, whatever deadlines the daemons run.
type Params struct {
	// LinkRate is the raw capacity of one rail in bits/s.
	LinkRate float64
	// FrameBytes is the on-wire size of one probe frame (request or
	// reply), including preamble and inter-frame gap.
	FrameBytes int
	// Switched models a switched fabric instead of the paper's shared
	// hubs: every node has a dedicated full-rate port, so the binding
	// constraint is the busiest port, not the shared medium. Round
	// time then grows linearly in N instead of quadratically.
	Switched bool
}

// Defaults returns the paper's configuration.
func Defaults() Params {
	return Params{LinkRate: DefaultLinkRate, FrameBytes: DefaultFrameBytes}
}

func (p Params) validate() error {
	if !(p.LinkRate > 0) {
		return fmt.Errorf("costmodel: link rate must be positive, have %v", p.LinkRate)
	}
	if p.FrameBytes <= 0 {
		return fmt.Errorf("costmodel: frame size must be positive, have %d", p.FrameBytes)
	}
	return nil
}

// FramesPerRound returns the number of probe frames one full round of
// link checks places on each rail for an n-node cluster. Each pair of
// daemons shares one check per rail, as the DRS daemon does: the lower
// id sends an echo request and the higher id answers it with an echo
// reply.
func (p Params) FramesPerRound(n int) int64 {
	if n < 2 {
		return 0
	}
	pairs := int64(n) * int64(n-1) / 2
	return 2 * pairs // request + reply
}

// BitsPerRound returns the number of bits one full round of checks
// places on each rail.
func (p Params) BitsPerRound(n int) float64 {
	return float64(p.FramesPerRound(n)) * float64(p.FrameBytes) * 8
}

// FramesPerRoundPort returns, for a switched fabric, the number of
// frames one round pushes through the busiest node port. Every node
// emits a request (or answers with a reply) toward each of its n-1
// peers: each pair exchanges one request and one reply, so a port
// carries n-1 frames outbound.
func (p Params) FramesPerRoundPort(n int) int64 {
	if n < 2 {
		return 0
	}
	return int64(n - 1)
}

// bitsPerRoundBottleneck returns the bits the binding resource must
// carry in one round: the shared medium on a hub, the busiest port on
// a switch.
func (p Params) bitsPerRoundBottleneck(n int) float64 {
	if p.Switched {
		return float64(p.FramesPerRoundPort(n)) * float64(p.FrameBytes) * 8
	}
	return p.BitsPerRound(n)
}

// ResponseTime returns the time, in seconds, to complete one full
// round of link checks on an n-node cluster when probing may use at
// most budget (a fraction in (0, 1]) of each rail's capacity. Because
// a failure is detected within one round (plus, under adaptive
// deadlines, a few retransmit timeouts, which add no frames to a
// healthy round), this is the system's error-detection response time.
// Both rails are probed concurrently, so the per-rail cost is the
// system cost.
func (p Params) ResponseTime(n int, budget float64) (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	if budget <= 0 || budget > 1 {
		return 0, fmt.Errorf("costmodel: budget %v outside (0,1]", budget)
	}
	if n < 2 {
		return 0, fmt.Errorf("costmodel: need at least 2 nodes, have %d", n)
	}
	return p.bitsPerRoundBottleneck(n) / (budget * p.LinkRate), nil
}

// Overhead returns the fraction of rail capacity consumed when an
// n-node cluster must achieve a round time of responseTime seconds.
// This inverts ResponseTime: it answers "what bandwidth does a given
// detection latency cost?".
func (p Params) Overhead(n int, responseTime float64) (float64, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	if responseTime <= 0 {
		return 0, fmt.Errorf("costmodel: response time must be positive")
	}
	if n < 2 {
		return 0, fmt.Errorf("costmodel: need at least 2 nodes, have %d", n)
	}
	return p.bitsPerRoundBottleneck(n) / (responseTime * p.LinkRate), nil
}

// MaxNodes returns the largest cluster whose full check round fits in
// responseTime seconds at the given bandwidth budget — the paper's
// "maximum number of servers in the cluster that the DRS supports
// given a requirement for error resolution in X time units".
func (p Params) MaxNodes(budget, responseTime float64) (int, error) {
	if err := p.validate(); err != nil {
		return 0, err
	}
	if budget <= 0 || budget > 1 {
		return 0, fmt.Errorf("costmodel: budget %v outside (0,1]", budget)
	}
	if responseTime <= 0 {
		return 0, fmt.Errorf("costmodel: response time must be positive")
	}
	// Solve the budget equation for an over-estimate of n, then
	// correct by scanning downward (which absorbs integer effects).
	perCheck := float64(p.FrameBytes) * 8 * 2 // request + reply bits
	budgetBits := budget * p.LinkRate * responseTime
	var n int
	if p.Switched {
		// Busiest port carries ~(n-1) checks' worth of frames.
		n = int(2*budgetBits/perCheck) + 3
	} else {
		// Shared medium carries n(n-1)/2 checks.
		n = int(math.Sqrt(2*budgetBits/perCheck)) + 2
	}
	for n >= 2 {
		rt, err := p.ResponseTime(n, budget)
		if err != nil {
			return 0, err
		}
		if rt <= responseTime {
			return n, nil
		}
		n--
	}
	return 0, fmt.Errorf("costmodel: no cluster of ≥2 nodes fits budget %v in %vs", budget, responseTime)
}

// FigureBudgets are the bandwidth budgets plotted in the paper's
// Figure 1.
var FigureBudgets = []float64{0.05, 0.10, 0.15, 0.25}
