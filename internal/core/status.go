package core

import (
	"time"

	"drsnet/internal/dataplane"
)

// Status is a point-in-time, JSON-serializable snapshot of a running
// daemon: the live daemon's status reporter emits one per interval,
// and the daemon smoke tests read convergence and rejoin out of it.
type Status struct {
	// Node is the local node index.
	Node int `json:"node"`
	// Incarnation is the life this daemon is running.
	Incarnation uint32 `json:"incarnation"`
	// Now is the daemon clock at snapshot time.
	Now time.Duration `json:"now"`
	// Repairs counts completed route repairs since start.
	Repairs int `json:"repairs"`
	// Queued counts data frames parked in discovery queues.
	Queued int `json:"queued"`
	// Peers holds the per-peer view, in ascending peer order.
	Peers []PeerStatus `json:"peers,omitempty"`
	// Overload reports the overload-protection layer's gauges; nil
	// when the layer is disabled.
	Overload *OverloadStatus `json:"overload,omitempty"`
}

// OverloadStatus is the snapshot of the overload-protection layer:
// whether the daemon is riding out a storm in degraded mode, how much
// control budget remains, and how much deferred work is parked.
type OverloadStatus struct {
	// Degraded reports whether the degraded-mode governor currently
	// holds routes pinned last-known-good.
	Degraded bool `json:"degraded"`
	// ProbeTokens and QueryTokens are the budget tokens available
	// right now for probe retransmits and discovery broadcasts.
	ProbeTokens float64 `json:"probeTokens"`
	QueryTokens float64 `json:"queryTokens"`
	// Deferred holds per-class control-queue depths, indexed by
	// dataplane.Class (liveness, repair).
	Deferred []int `json:"deferred"`
	// Pinned counts routes held last-known-good by degraded mode.
	Pinned int `json:"pinned"`
}

// PeerStatus is the snapshot of one monitored peer.
type PeerStatus struct {
	Peer int `json:"peer"`
	// Route is the installed route kind: "none", "direct" or "relay".
	Route string `json:"route"`
	// Rail and Via qualify the route (meaningless for "none").
	Rail int `json:"rail"`
	Via  int `json:"via"`
	// LastHeard is the last time the peer produced valid traffic.
	LastHeard time.Duration `json:"lastHeard"`
	// Incarnation is the peer's last known incarnation (0 = unknown).
	Incarnation uint32 `json:"incarnation,omitempty"`
	// Rails holds per-rail link state, indexed by rail.
	Rails []RailStatus `json:"rails"`
}

// RailStatus is the snapshot of one (peer, rail) monitored path.
type RailStatus struct {
	Up bool `json:"up"`
	// SRTT is the smoothed round-trip estimate; zero until the first
	// probe completes.
	SRTT time.Duration `json:"srtt,omitempty"`
}

// Status captures a snapshot of the daemon's routes, link states and
// membership view. Safe to call on a running daemon.
func (d *Daemon) Status() Status {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := Status{
		Node:        d.self,
		Incarnation: d.cfg.Incarnation,
		Now:         d.clock.Now(),
		Repairs:     d.routes.RepairCount(),
		Queued:      d.plane.Queued(),
	}
	for peer := 0; peer < d.links.Nodes(); peer++ {
		if !d.links.Monitored(peer) {
			continue
		}
		rt := d.routes.Route(peer)
		ps := PeerStatus{
			Peer:        peer,
			Route:       rt.Kind.String(),
			Rail:        rt.Rail,
			Via:         rt.Via,
			LastHeard:   d.members.LastHeard(peer),
			Incarnation: d.members.Incarnation(peer),
			Rails:       make([]RailStatus, d.rails),
		}
		for rail := 0; rail < d.rails; rail++ {
			st := d.links.State(peer, rail)
			ps.Rails[rail] = RailStatus{Up: st.Up}
			if rtt, ok := st.RTT(); ok {
				ps.Rails[rail].SRTT = rtt.SRTT
			}
		}
		s.Peers = append(s.Peers, ps)
	}
	if d.gov != nil {
		now := d.clock.Now()
		os := &OverloadStatus{
			Degraded:    d.gov.Degraded(),
			ProbeTokens: d.links.RetransmitTokens(now),
			QueryTokens: d.routes.QueryTokens(now),
			Deferred:    make([]int, dataplane.NumClasses),
			Pinned:      len(d.pinned),
		}
		for c := dataplane.Class(0); c < dataplane.NumClasses; c++ {
			os.Deferred[c] = d.ctrlQ.Depth(c)
		}
		s.Overload = os
	}
	return s
}
