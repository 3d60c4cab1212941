package core

import (
	"fmt"
	"time"

	"drsnet/internal/linkmon"
	"drsnet/internal/overload"
	"drsnet/internal/trace"
)

// Config parameterizes a DRS daemon.
type Config struct {
	// ProbeInterval is the period of the phase-1 link-check round.
	// The cost model (internal/costmodel) relates this to cluster
	// size and bandwidth budget. Default 1 s.
	ProbeInterval time.Duration
	// MissThreshold is the number of consecutive unanswered probes
	// after which a link is declared down. Default 2. A threshold of
	// 1 detects fastest but false-positives under frame loss — the
	// miss-threshold ablation bench quantifies the trade.
	MissThreshold int
	// RelayTTL is the rebroadcast depth of route queries. The default
	// of 1 is always sufficient on a dual-rail cluster (a single relay
	// bridges the rails); higher values let discovery cross relay
	// chains on ≥3-rail topologies.
	RelayTTL int
	// QueryTimeout is how long the daemon waits for route offers
	// before giving up (it retries at the next probe round while the
	// destination stays unreachable). Default ProbeInterval/2.
	QueryTimeout time.Duration
	// DataTTL bounds data-plane forwarding hops. Default 4.
	DataTTL int
	// QueueCapacity is the number of datagrams buffered per
	// destination while route discovery is in flight. When the queue
	// is full the oldest datagram is dropped (and counted by the
	// queue.overflow metric) so the freshest traffic survives the
	// wait. Default 16.
	QueueCapacity int
	// Monitor lists the peers this daemon link-checks; nil means all
	// other nodes (the deployed DRS monitors the whole cluster).
	Monitor []int
	// StaggerProbes spreads each round's link checks evenly across
	// the probe interval instead of bursting them at the round start.
	// Detection latency is unchanged (misses are still accounted per
	// round); what changes is the instantaneous load on the shared
	// segments — the difference between a once-a-second frame train
	// and a smooth trickle.
	StaggerProbes bool
	// DynamicMembership switches the daemon from the deployed DRS's
	// static host list to discovery: each round the daemon broadcasts
	// a hello, and any hello it hears adds the sender to its monitored
	// set. Monitor then lists only pre-seeded peers (nil means start
	// empty). An extension beyond the paper.
	DynamicMembership bool
	// PreferLowLatency steers direct routes toward the rail with the
	// lower smoothed probe RTT: each round, a route moves if another
	// healthy rail has been measured at less than half its current
	// rail's SRTT (the 2× hysteresis prevents flapping). The deployed
	// DRS used fixed rail preference; this extension uses the probes
	// the protocol already pays for as a congestion signal.
	PreferLowLatency bool
	// StrictLinkEvidence restricts link-liveness evidence to round
	// trips: only confirmed replies to our own probes clear misses or
	// raise a rail. By default any traffic heard from a peer also
	// counts — optimistic and fast, but it proves the peer→us
	// direction only, so an asymmetric cut (our frames to the peer
	// vanish while theirs arrive) is masked forever: the peer's own
	// probes keep resetting our miss counter while our data
	// blackholes. Strict evidence lets misses accumulate on the dead
	// tx direction and the route fail over. Membership freshness
	// still counts heard traffic either way. Pairs still share one
	// exchange per rail: the answering end credits a request only when
	// it acknowledges the reply to the previous round's request, which
	// gives it the round trip its own probe would (see
	// noteAliveLocked).
	StrictLinkEvidence bool
	// FlapDamping holds a recovered (peer, rail) path down, RFC
	// 2439-style, while its flap penalty stays high: each link-down
	// transition charges a penalty that decays exponentially, and a
	// path whose penalty crossed the suppress threshold is not
	// re-trusted on recovery until the penalty decays below the reuse
	// threshold. Damped paths are excluded from route selection and
	// relay offers but keep being probed, so release is prompt once
	// the path genuinely stabilizes. The zero value disables damping
	// (the deployed DRS re-trusted links immediately); enable with
	// linkmon.DefaultDamping() or explicit thresholds. An extension
	// beyond the paper, motivated by gray-failure chaos campaigns.
	FlapDamping linkmon.Damping
	// Incarnation numbers this daemon's life within the crash–restart
	// lifecycle: zero (the default) disables lifecycle tracking and
	// keeps the legacy wire frames, so seeded goldens are unchanged.
	// When ≥ 1 the daemon opens with a rejoin broadcast carrying the
	// incarnation, stamps its hellos and route offers with it, and
	// rejects control frames from peers' previous lives.
	Incarnation uint32
	// Restore warm-starts the daemon from a checkpoint taken by its
	// previous life: routes, membership view and RTT estimates are
	// seeded instead of re-learned. Requires an Incarnation newer than
	// the checkpoint's. nil starts cold.
	Restore *Checkpoint
	// Overload enables the control-plane overload-protection layer:
	// token-bucket budgets on probe retransmits and discovery
	// broadcasts, deterministic jitter on RTO deadlines, hello storm
	// suppression, a prioritized control queue for deferred work, and
	// the degraded-mode governor that pins last-known-good routes when
	// budgets saturate. The zero value disables the layer entirely and
	// keeps seeded goldens byte-identical; enable with
	// overload.Default() or explicit budgets. An extension beyond the
	// paper, motivated by correlated-failure storm campaigns.
	Overload overload.Config
	// AdaptiveRTO replaces the fixed once-per-round probe deadline
	// with a Jacobson/Karels adaptive timeout: each probe arms a timer
	// at srtt + 4·rttvar (clamped, exponentially backed off on
	// consecutive misses) and the miss is counted the moment it
	// expires instead of at the next round. The zero value keeps the
	// classic round-based miss accounting. It needs a deadline per
	// probe at each end, so every daemon probes every peer.
	AdaptiveRTO linkmon.RTO
	// Trace, if non-nil, receives protocol events.
	Trace *trace.Log
}

// DefaultConfig returns the deployed defaults.
func DefaultConfig() Config {
	return Config{
		ProbeInterval: time.Second,
		MissThreshold: 2,
		RelayTTL:      1,
		DataTTL:       4,
		QueueCapacity: 16,
	}
}

func (c *Config) normalize(nodes, self int) error {
	if c.ProbeInterval <= 0 {
		return fmt.Errorf("core: probe interval must be positive")
	}
	if c.MissThreshold <= 0 {
		return fmt.Errorf("core: miss threshold must be positive")
	}
	if c.RelayTTL <= 0 {
		return fmt.Errorf("core: relay TTL must be positive")
	}
	if c.QueryTimeout == 0 {
		c.QueryTimeout = c.ProbeInterval / 2
	}
	if c.QueryTimeout <= 0 {
		return fmt.Errorf("core: query timeout must be positive")
	}
	if c.DataTTL <= 0 {
		c.DataTTL = 4
	}
	if c.QueueCapacity <= 0 {
		c.QueueCapacity = 16
	}
	if err := c.FlapDamping.Normalize(); err != nil {
		return fmt.Errorf("core: %v", err)
	}
	if err := c.AdaptiveRTO.Normalize(); err != nil {
		return fmt.Errorf("core: %v", err)
	}
	if err := c.Overload.Normalize(); err != nil {
		return fmt.Errorf("core: %v", err)
	}
	if c.Restore != nil && c.Incarnation == 0 {
		return fmt.Errorf("core: warm restore requires a nonzero incarnation")
	}
	if c.Monitor == nil && !c.DynamicMembership && nodes > 1 {
		c.Monitor = make([]int, 0, nodes-1)
		for n := 0; n < nodes; n++ {
			if n != self {
				c.Monitor = append(c.Monitor, n)
			}
		}
	}
	seen := make([]bool, nodes)
	for _, p := range c.Monitor {
		if p < 0 || p >= nodes || p == self {
			return fmt.Errorf("core: monitored peer %d invalid for node %d of %d", p, self, nodes)
		}
		if seen[p] {
			return fmt.Errorf("core: peer %d monitored twice", p)
		}
		seen[p] = true
	}
	return nil
}
