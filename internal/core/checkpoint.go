package core

import (
	"fmt"
	"time"

	"drsnet/internal/trace"
)

// Checkpoint is a daemon's warm-start image: everything a restarting
// daemon can legitimately reuse from its previous life — the route
// table, the membership view, and the smoothed RTT estimates that
// seed the adaptive probe deadlines. It is plain serializable data
// (a real deployment would persist it across the process crash); the
// cluster runtime takes one at crash time when the scenario asks for
// a warm restart. Flap-damping penalties are deliberately not
// checkpointed: a reboot clears them, the same way a replaced router
// starts with a clean reputation.
type Checkpoint struct {
	// Node is the daemon the checkpoint belongs to; restoring it on
	// any other node is rejected.
	Node int `json:"node"`
	// Incarnation is the life the checkpoint was taken in. The
	// restoring daemon must run a strictly newer incarnation.
	Incarnation uint32 `json:"incarnation"`
	// TakenAt is the simulated instant of the crash.
	TakenAt time.Duration `json:"takenAt"`
	// Peers holds the per-peer state, in ascending peer order.
	Peers []PeerState `json:"peers,omitempty"`
}

// PeerState is the checkpointed view of one monitored peer. Older
// images also carry a "static" mark per peer; decoding ignores it, so
// drsd still warm-starts from them across an upgrade.
type PeerState struct {
	Peer int `json:"peer"`
	// LastHeard is the last time the peer produced valid traffic.
	LastHeard time.Duration `json:"lastHeard"`
	// Incarnation is the peer's last known incarnation (0 = unknown).
	Incarnation uint32 `json:"incarnation,omitempty"`
	// Route is the installed route to the peer at crash time.
	Route Route `json:"route"`
	// Rails holds per-rail link state, indexed by rail.
	Rails []RailState `json:"rails"`
}

// RailState is the checkpointed probe state of one (peer, rail) path.
type RailState struct {
	Up      bool          `json:"up"`
	SRTT    time.Duration `json:"srtt,omitempty"`
	RTTVar  time.Duration `json:"rttvar,omitempty"`
	Samples int64         `json:"samples,omitempty"`
}

// Checkpoint captures the daemon's warm-start image at this instant.
// It is safe to call on a running daemon; the runtime calls it at the
// moment of a scripted crash.
func (d *Daemon) Checkpoint() *Checkpoint {
	d.mu.Lock()
	defer d.mu.Unlock()
	cp := &Checkpoint{
		Node:        d.self,
		Incarnation: d.cfg.Incarnation,
		TakenAt:     d.clock.Now(),
	}
	for peer := 0; peer < d.links.Nodes(); peer++ {
		if !d.links.Monitored(peer) {
			continue
		}
		ps := PeerState{
			Peer:        peer,
			LastHeard:   d.members.LastHeard(peer),
			Incarnation: d.members.Incarnation(peer),
			Route:       d.routes.Route(peer),
			Rails:       make([]RailState, d.rails),
		}
		for rail := 0; rail < d.rails; rail++ {
			st := d.links.State(peer, rail)
			ps.Rails[rail] = RailState{Up: st.Up}
			if rtt, ok := st.RTT(); ok {
				ps.Rails[rail].SRTT = rtt.SRTT
				ps.Rails[rail].RTTVar = rtt.RTTVar
				ps.Rails[rail].Samples = rtt.Samples
			}
		}
		cp.Peers = append(cp.Peers, ps)
	}
	return cp
}

// restoreLocked seeds a freshly built daemon from its previous life's
// checkpoint: link states, RTT estimates, last-heard times,
// incarnations and routes.
// Restored routes are recorded with SetRoute, not Install — a warm
// restore is not a repair — but each one that differs from the cold
// default emits a route-installed trace event (detail "warm restore"),
// which is what makes warm recovery measurable against cold. Called
// from New before the daemon starts; d.mu is not yet contended.
func (d *Daemon) restoreLocked(cp *Checkpoint) error {
	if cp.Node != d.self {
		return fmt.Errorf("core: checkpoint of node %d restored on node %d", cp.Node, d.self)
	}
	if cp.Incarnation >= d.cfg.Incarnation {
		return fmt.Errorf("core: checkpoint incarnation %d not older than this life's %d",
			cp.Incarnation, d.cfg.Incarnation)
	}
	now := d.clock.Now()
	for _, ps := range cp.Peers {
		if ps.Peer < 0 || ps.Peer >= d.tr.Nodes() || ps.Peer == d.self {
			return fmt.Errorf("core: checkpoint peer %d invalid for node %d of %d",
				ps.Peer, d.self, d.tr.Nodes())
		}
		if len(ps.Rails) != d.rails {
			return fmt.Errorf("core: checkpoint peer %d carries %d rails, cluster has %d",
				ps.Peer, len(ps.Rails), d.rails)
		}
		if !d.links.Monitored(ps.Peer) {
			continue // peer dropped from the monitor set
		}
		d.members.Heard(ps.Peer, ps.LastHeard)
		d.members.ObserveIncarnation(ps.Peer, ps.Incarnation)
		for rail, rs := range ps.Rails {
			st := d.links.State(ps.Peer, rail)
			st.Up = rs.Up
			st.SeedRTT(rs.SRTT, rs.RTTVar, rs.Samples)
		}
		rt := ps.Route
		if rt.Kind == RouteNone || rt == d.routes.Route(ps.Peer) {
			continue
		}
		if rt.Rail < 0 || rt.Rail >= d.rails || rt.Via < 0 || rt.Via >= d.tr.Nodes() ||
			!routeShaped(rt, d.self, ps.Peer) {
			return fmt.Errorf("core: checkpoint route to peer %d malformed", ps.Peer)
		}
		d.routes.SetRoute(ps.Peer, rt)
		d.event(trace.Event{At: now, Node: d.self, Kind: trace.KindRouteInstalled,
			Peer: ps.Peer, Rail: rt.Rail, Detail: fmt.Sprintf("%s via %d (warm restore)", rt.Kind, rt.Via)})
	}
	return nil
}

// routeShaped reports whether rt has the shape of a route from node
// self to peer: Direct goes via the peer itself, Relay via a third
// node.
func routeShaped(rt Route, self, peer int) bool {
	switch rt.Kind {
	case RouteDirect:
		return rt.Via == peer
	case RouteRelay:
		return rt.Via != peer && rt.Via != self
	}
	return false
}
