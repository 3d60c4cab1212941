package core

import (
	"fmt"
	"strconv"

	"drsnet/internal/dataplane"
	"drsnet/internal/routing"
	"drsnet/internal/trace"
)

// detailSeq renders "seq=N" without fmt — byte-identical to the
// Sprintf it replaces, one allocation instead of fmt's slow path.
func detailSeq(seq uint32) string {
	var b [16]byte
	out := append(b[:0], "seq="...)
	out = strconv.AppendUint(out, uint64(seq), 10)
	return string(out)
}

// detailOriginSeq renders "origin=O seq=N" without fmt.
func detailOriginSeq(origin uint16, seq uint32) string {
	var b [32]byte
	out := append(b[:0], "origin="...)
	out = strconv.AppendUint(out, uint64(origin), 10)
	out = append(out, " seq="...)
	out = strconv.AppendUint(out, uint64(seq), 10)
	return string(out)
}

// Data plane: originate, relay and deliver application datagrams over
// whatever routes phase 2 has installed. The mechanics (sequence
// numbers, TTL policing, discovery queues) live in internal/dataplane;
// this file supplies the DRS's next-hop policy.

// SendData routes one application datagram to dst. While discovery is
// in flight the datagram is queued (bounded, oldest dropped first on
// overflow) and flushed when a route installs; nil is returned in that
// case because recovery is the expected outcome.
func (d *Daemon) SendData(dst int, data []byte) error {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return routing.ErrStopped
	}
	if dst < 0 || dst >= d.tr.Nodes() || dst == d.self {
		d.mu.Unlock()
		return fmt.Errorf("core: bad destination %d", dst)
	}
	if !d.links.Monitored(dst) {
		d.mu.Unlock()
		return fmt.Errorf("core: destination %d is not monitored", dst)
	}
	if d.routes.Route(dst).Kind == RouteNone {
		// Queued frames are retained until a route installs, so they
		// get their own allocation.
		frame := d.plane.NewFrame(dst, data)
		now := d.clock.Now()
		d.plane.Enqueue(dst, frame)
		d.startQueryLocked(dst, now)
		d.mu.Unlock()
		return nil
	}
	// Sent-immediately frames go through the scratch buffer.
	d.frameBuf = d.plane.NewFrameInto(d.frameBuf, dst, data)
	d.forwardLocked(dst, d.frameBuf)
	d.mu.Unlock()
	d.dataSent.Inc()
	return nil
}

// forwardLocked transmits an already-enveloped data frame along the
// installed route to dst. Caller holds d.mu.
func (d *Daemon) forwardLocked(dst int, frame []byte) {
	rt := d.routes.Route(dst)
	if rt.Kind == RouteNone {
		d.dataDropped.Inc()
		return
	}
	_ = d.tr.Send(rt.Rail, rt.Via, frame)
}

func (d *Daemon) onData(rail, src int, body []byte) {
	h, data, act := d.plane.Classify(body)
	switch act {
	case dataplane.Deliver:
		d.mu.Lock()
		deliver := d.deliver
		stopped := d.stopped
		now := d.clock.Now()
		d.mu.Unlock()
		if stopped || deliver == nil {
			return
		}
		d.dataDelivered.Inc()
		if d.tracing() {
			d.event(trace.Event{At: now, Node: d.self, Kind: trace.KindDataDelivered,
				Peer: int(h.Origin), Rail: rail, Detail: detailSeq(h.Seq)})
		}
		deliver(int(h.Origin), data)
	case dataplane.Drop:
		d.dataDropped.Inc()
	case dataplane.Forward:
		// Relay duty: forward toward the final destination. Classify
		// already decremented the TTL.
		final := int(h.Final)
		d.mu.Lock()
		if d.stopped || !d.links.Monitored(final) {
			d.mu.Unlock()
			d.dataDropped.Inc()
			return
		}
		now := d.clock.Now()
		// Prefer a live (and un-damped) direct rail; fall back to our
		// own relay route as long as it does not bounce the frame back
		// where it came from (the TTL is the backstop against longer
		// cycles on exotic topologies).
		outRail, outVia := -1, -1
		if r, ok := d.links.FirstUsable(final); ok {
			outRail, outVia = r, final
		}
		if outRail < 0 {
			if rt := d.routes.Route(final); rt.Kind == RouteRelay && rt.Via != src && rt.Via != int(h.Origin) {
				outRail, outVia = rt.Rail, rt.Via
			}
		}
		if outRail < 0 {
			d.mu.Unlock()
			d.dataDropped.Inc()
			return
		}
		// Re-frame into the scratch buffer and send while still holding
		// mu (forwardLocked sets the precedent).
		d.frameBuf = dataplane.AppendFrame(d.frameBuf[:0], h, data)
		_ = d.tr.Send(outRail, outVia, d.frameBuf)
		d.mu.Unlock()
		d.dataForwarded.Inc()
		if d.tracing() {
			d.event(trace.Event{At: now, Node: d.self, Kind: trace.KindDataForwarded,
				Peer: final, Rail: outRail, Detail: detailOriginSeq(h.Origin, h.Seq)})
		}
	}
}
