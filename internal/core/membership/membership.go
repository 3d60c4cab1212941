// Package membership keeps the DRS daemon's view of its peers. As in
// the deployed system, who belongs to the cluster is the configured
// host list; the Tracker records what the daemon learns about those
// hosts at run time: when each was last heard from and, when the
// crash–restart lifecycle is enabled, which life (incarnation) each
// runs. Rejoin is the one membership frame on the wire, the restart
// handshake a recovering daemon opens with. The owning daemon decides
// what a reboot observed here does to its monitoring and route state.
//
// A Tracker is not goroutine-safe; the daemon serializes access under
// its own lock.
package membership

import (
	"time"

	"drsnet/internal/routing/wire"
	"drsnet/internal/transport"
)

// Tracker records when each peer was last heard from and — when the
// crash–restart lifecycle is enabled — the highest incarnation number
// observed per peer.
type Tracker struct {
	lastHeard []time.Duration
	inc       []uint32
}

// New returns a tracker for a cluster of nodes.
func New(nodes int) *Tracker {
	return &Tracker{
		lastHeard: make([]time.Duration, nodes),
		inc:       make([]uint32, nodes),
	}
}

// Heard records valid traffic from peer at now.
func (m *Tracker) Heard(peer int, now time.Duration) { m.lastHeard[peer] = now }

// LastHeard returns the last time peer produced valid traffic.
func (m *Tracker) LastHeard(peer int) time.Duration { return m.lastHeard[peer] }

// Incarnation returns the highest incarnation observed from peer
// (zero until the first incarnation-stamped frame).
func (m *Tracker) Incarnation(peer int) uint32 { return m.inc[peer] }

// ObserveIncarnation records inc when it is newer than the stored
// view. It reports whether the view advanced from one known life to
// another — a reboot observed mid-flight; first sightings (from zero)
// record silently and return false.
func (m *Tracker) ObserveIncarnation(peer int, inc uint32) (rebooted bool) {
	cur := m.inc[peer]
	if inc > cur {
		m.inc[peer] = inc
		return cur != 0
	}
	return false
}

// StaleIncarnation reports whether inc belongs to a previous life of
// peer — a control frame stamped with it must be dropped.
func (m *Tracker) StaleIncarnation(peer int, inc uint32) bool {
	return inc < m.inc[peer]
}

// Rejoin broadcasts a rejoin announcement on every rail: the restart
// handshake a recovering daemon opens with, telling peers its new
// incarnation so they purge state from the previous life.
func Rejoin(tr transport.Transport, inc uint32) {
	msg := wire.Envelope(wire.ProtoControl, wire.MarshalRejoin(inc))
	for rail := 0; rail < tr.Rails(); rail++ {
		_ = tr.Send(rail, transport.Broadcast, msg)
	}
}
