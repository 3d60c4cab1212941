package core

import (
	"fmt"

	"drsnet/internal/routing"
	"drsnet/internal/routing/wire"
	"drsnet/internal/trace"
	"drsnet/internal/transport"
)

// Phase-2 control plane: route queries and offers (relay discovery)
// and the rejoin announcement. Membership is the configured host list,
// so a control frame of any other type, the retired hello and goodbye
// included, is ignored.

func (d *Daemon) onControl(rail, src int, body []byte) {
	if len(body) == 0 {
		return
	}
	switch body[0] {
	case wire.MsgRouteQuery:
		q, err := wire.UnmarshalQuery(body)
		if err != nil {
			return
		}
		d.onQuery(rail, src, q)
	case wire.MsgRouteOffer:
		o, err := wire.UnmarshalOffer(body)
		if err != nil {
			return
		}
		d.onOffer(rail, o)
	case wire.MsgRejoin:
		inc, err := wire.UnmarshalRejoin(body)
		if err != nil {
			return
		}
		d.onRejoin(rail, src, inc)
	case wire.MsgOfferInc:
		o, inc, err := wire.UnmarshalOfferInc(body)
		if err != nil {
			return
		}
		// The stamp is the relay's incarnation: an offer delayed past
		// the relay's next reboot promises a route its current life
		// does not hold.
		if !d.admitIncarnation(int(o.Relay), inc) {
			return
		}
		d.onOffer(rail, o)
	}
}

func (d *Daemon) onQuery(rail, src int, q wire.Query) {
	self := d.self
	origin := int(q.Origin)
	target := int(q.Target)
	if origin == self || origin < 0 || origin >= d.tr.Nodes() ||
		target < 0 || target >= d.tr.Nodes() {
		return
	}
	d.mset.Counter(routing.CtrQueriesRecv).Inc()

	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return
	}
	now := d.clock.Now()
	if d.routes.SeenRecently(q.Origin, q.Seq, now, 10*d.cfg.ProbeInterval) {
		d.mu.Unlock()
		return
	}

	canOffer := false
	if target == self {
		// The query reached us, so origin↔us works on this rail:
		// offer ourselves; the origin installs a direct route.
		canOffer = true
	} else if d.links.AnyFresh(target) {
		// Only offer relay duty over paths we actually trust: a damped
		// rail would accept the origin's traffic and then refuse to
		// forward it, and a rail that has missed a check is likely
		// failing for us as it did for the origin.
		canOffer = true
	} else if rt := d.routes.Route(target); rt.Kind == RouteRelay && rt.Via != origin {
		// We reach the target through our own relay: offering chains
		// discoveries, which is what connects multi-rail topologies
		// where no single server touches both endpoints' rails. The
		// data plane's TTL and its no-bounce-back rule keep stale
		// chains from looping.
		canOffer = true
	}
	ttl := q.TTL
	d.mu.Unlock()

	if canOffer {
		offer := wire.Offer{Origin: q.Origin, Target: q.Target, Seq: q.Seq, Relay: uint16(self)}
		body := wire.MarshalOffer(offer)
		if d.cfg.Incarnation > 0 {
			body = wire.MarshalOfferInc(offer, d.cfg.Incarnation)
		}
		if err := d.tr.Send(rail, origin, wire.Envelope(wire.ProtoControl, body)); err == nil {
			d.mset.Counter(routing.CtrOffersSent).Inc()
			d.event(trace.Event{At: now, Node: self, Kind: trace.KindOfferSent,
				Peer: origin, Rail: rail, Detail: fmt.Sprintf("target=%d", target)})
		}
		return
	}
	// Cannot help directly: extend the search if the query has depth
	// left (multi-rail topologies; a no-op at the default TTL of 1).
	if ttl > 1 {
		q.TTL = ttl - 1
		payload := wire.Envelope(wire.ProtoControl, wire.MarshalQuery(q))
		for r := 0; r < d.rails; r++ {
			_ = d.tr.Send(r, transport.Broadcast, payload)
		}
	}
}

func (d *Daemon) onOffer(rail int, o wire.Offer) {
	self := d.self
	if int(o.Origin) != self {
		return // not addressed to us
	}
	target := int(o.Target)
	relay := int(o.Relay)
	if target < 0 || target >= d.tr.Nodes() || relay < 0 || relay >= d.tr.Nodes() {
		return
	}
	d.mset.Counter(routing.CtrOffersRecv).Inc()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return
	}
	q, ok := d.routes.Pending(target)
	if !ok || q.Seq != o.Seq {
		return // stale or unsolicited offer; first offer already won
	}
	now := d.clock.Now()
	if relay == target {
		// The target itself answered: the rail works after all.
		d.installLocked(target, Route{Kind: RouteDirect, Rail: rail, Via: target}, now)
	} else {
		d.installLocked(target, Route{Kind: RouteRelay, Rail: rail, Via: relay}, now)
	}
}
