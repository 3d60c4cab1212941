package core

import (
	"fmt"
	"time"

	"drsnet/internal/routing"
	"drsnet/internal/trace"
)

// Crash–restart lifecycle handling: rejoin announcements and the
// incarnation guard on stamped control frames. All of it is inert
// while Config.Incarnation is zero — a lifecycle-free daemon never
// sends these frames, and accepting them costs nothing.

// onRejoin processes a peer's rejoin broadcast: record the new
// incarnation, treat the frame as liveness proof for the arrival
// rail, and — when the peer was already known under an older life —
// purge every route that relays through it, because those routes were
// installed against a route table the reboot erased.
func (d *Daemon) onRejoin(rail, src int, inc uint32) {
	if src == d.self || src < 0 || src >= d.tr.Nodes() {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return
	}
	now := d.clock.Now()
	prev := d.members.Incarnation(src)
	d.members.ObserveIncarnation(src, inc)
	if inc <= prev {
		return // duplicate rejoin, or one from a life we already left
	}
	if d.links.Monitored(src) {
		// The broadcast arrived, so this rail demonstrably works:
		// clear the miss count and bring the link back immediately
		// rather than waiting out a probe round.
		st := d.links.State(src, rail)
		st.Misses = 0
		d.members.Heard(src, now)
		if !st.Up {
			d.markUpLocked(src, rail, now)
		}
	}
	if prev == 0 {
		return // first sighting (cluster start): nothing to purge
	}
	d.event(trace.Event{At: now, Node: d.self, Kind: trace.KindPeerRejoined,
		Peer: src, Rail: rail, Detail: fmt.Sprintf("incarnation %d->%d", prev, inc)})
	d.purgeRelaysViaLocked(src, now)
}

// admitIncarnation vets an incarnation-stamped control frame from
// peer: a frame from a previous life is dropped (counted by the
// control.stale metric — the out-of-order-delivery race the stamp
// exists for), and a newer incarnation observed here (the rejoin
// broadcast may have been lost) purges relay routes through the
// peer's earlier life before the frame is processed.
func (d *Daemon) admitIncarnation(peer int, inc uint32) bool {
	if peer < 0 || peer >= d.tr.Nodes() || peer == d.self {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return false
	}
	if d.members.StaleIncarnation(peer, inc) {
		d.mset.Counter(routing.CtrStaleControl).Inc()
		return false
	}
	if d.members.ObserveIncarnation(peer, inc) {
		d.purgeRelaysViaLocked(peer, d.clock.Now())
	}
	return true
}

// purgeRelaysViaLocked tears down every route relaying through via —
// installed against a life of via that no longer holds the matching
// state — and immediately looks for replacements. Caller holds d.mu.
func (d *Daemon) purgeRelaysViaLocked(via int, now time.Duration) {
	for _, dst := range d.routes.ViaRelay(via) {
		d.repairLocked(dst, now)
	}
}
