// Package membership implements the DRS's dynamic-membership
// extension: instead of the deployed system's statically configured
// host list, daemons announce themselves with a hello each probe
// round and retract themselves with a goodbye; a learned peer that
// goes silent stays a member, and probe misses take its links down
// like any other peer's. The Tracker only keeps the who-and-when
// bookkeeping; the owning daemon decides what joining or leaving does
// to its monitoring and route state.
//
// A Tracker is not goroutine-safe; the daemon serializes access under
// its own lock.
package membership

import (
	"time"

	"drsnet/internal/routing/wire"
	"drsnet/internal/transport"
)

// Tracker records which peers are statically configured, when each
// peer was last heard from, and — when the crash–restart lifecycle is
// enabled — the highest incarnation number observed per peer.
type Tracker struct {
	static    []bool
	lastHeard []time.Duration
	inc       []uint32
}

// New returns a tracker for a cluster of nodes.
func New(nodes int) *Tracker {
	return &Tracker{
		static:    make([]bool, nodes),
		lastHeard: make([]time.Duration, nodes),
		inc:       make([]uint32, nodes),
	}
}

// MarkStatic pins peer as pre-configured: static members stay
// monitored even after a goodbye.
func (m *Tracker) MarkStatic(peer int) { m.static[peer] = true }

// IsStatic reports whether peer is pre-configured.
func (m *Tracker) IsStatic(peer int) bool { return m.static[peer] }

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

// Announce broadcasts a hello on every rail so unknown peers learn
// the sender (and the sender learns them from their hellos).
func Announce(tr transport.Transport) {
	hello := wire.Envelope(wire.ProtoControl, wire.MarshalHello())
	for rail := 0; rail < tr.Rails(); rail++ {
		_ = tr.Send(rail, transport.Broadcast, hello)
	}
}

// AnnounceInc broadcasts an incarnation-stamped hello on every rail
// (the lifecycle-enabled variant of Announce).
func AnnounceInc(tr transport.Transport, inc uint32) {
	hello := wire.Envelope(wire.ProtoControl, wire.MarshalHelloInc(inc))
	for rail := 0; rail < tr.Rails(); rail++ {
		_ = tr.Send(rail, transport.Broadcast, hello)
	}
}

// Goodbye broadcasts a departure announcement on every rail.
func Goodbye(tr transport.Transport) {
	bye := wire.Envelope(wire.ProtoControl, wire.MarshalGoodbye())
	for rail := 0; rail < tr.Rails(); rail++ {
		_ = tr.Send(rail, transport.Broadcast, bye)
	}
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
