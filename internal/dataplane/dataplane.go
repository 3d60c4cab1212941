// Package dataplane implements the data-plane mechanics every router
// in this repository shares: origin sequence numbering, frame
// construction, the deliver/forward/drop decision with TTL policing,
// and the bounded per-destination queue that buffers traffic while
// route discovery is in flight.
//
// What the package deliberately does not do is pick next hops or send
// anything — that is the routing protocol's whole job. A protocol
// builds frames with NewFrame, classifies received bodies with
// Classify, and acts on the verdict with its own route state.
//
// A Plane is not goroutine-safe; the owning protocol serializes
// access under its own lock.
package dataplane

import (
	"drsnet/internal/metrics"
	"drsnet/internal/routing/wire"
)

// Action is Classify's verdict on an incoming data frame.
type Action int

const (
	// Ignore means the body was malformed; it is not counted as
	// protocol traffic.
	Ignore Action = iota
	// Deliver means the frame is addressed to this node.
	Deliver
	// Drop means the frame cannot be forwarded (TTL exhausted or the
	// destination is outside the cluster).
	Drop
	// Forward means the frame should be relayed; the returned header
	// already has its TTL decremented.
	Forward
)

// Plane is one node's data-plane state.
type Plane struct {
	node  int
	nodes int
	ttl   int
	// capacity bounds each destination's discovery queue; zero
	// disables queueing entirely.
	capacity int
	// overflow counts frames discarded because a full queue had to
	// drop its oldest entry; nil disables counting.
	overflow *metrics.Counter

	seq    uint32
	queued map[int][][]byte
}

// New returns a data plane for node in a cluster of nodes, stamping
// ttl on originated frames and queueing at most capacity frames per
// destination (0 = no queueing). overflow, if non-nil, counts
// drop-oldest evictions.
func New(node, nodes, ttl, capacity int, overflow *metrics.Counter) *Plane {
	return &Plane{
		node:     node,
		nodes:    nodes,
		ttl:      ttl,
		capacity: capacity,
		overflow: overflow,
		queued:   make(map[int][][]byte),
	}
}

// Fork returns a copy of the plane, queued frames included, whose
// evictions count on overflow, for a forked simulation: into
// overwritten in place, its queues reused, or a new plane when into is
// nil.
func (p *Plane) Fork(into *Plane, overflow *metrics.Counter) *Plane {
	if into == nil {
		into = &Plane{queued: make(map[int][][]byte, len(p.queued))}
	}
	queued := into.queued
	*into = *p
	into.overflow, into.queued = overflow, queued
	for dst := range queued {
		if _, ok := p.queued[dst]; !ok {
			delete(queued, dst)
		}
	}
	for dst, q := range p.queued {
		// Queued frames are never written once enqueued; the queue
		// itself is, so each copy gets its own.
		queued[dst] = append(queued[dst][:0], q...)
	}
	return into
}

// NewFrame assigns the next origin sequence number and builds the
// complete ProtoData frame for dst.
func (p *Plane) NewFrame(dst int, data []byte) []byte {
	p.seq++
	h := wire.DataHeader{
		Origin: uint16(p.node),
		Final:  uint16(dst),
		TTL:    uint8(p.ttl),
		Seq:    p.seq,
	}
	return Frame(h, data)
}

// Frame envelopes a data header and payload into a sendable frame.
func Frame(h wire.DataHeader, data []byte) []byte {
	return AppendFrame(make([]byte, 0, 1+wire.DataHeaderLen+len(data)), h, data)
}

// AppendFrame appends a complete framed datagram (envelope byte,
// header, payload) to buf and returns the extended slice. It is the
// allocation-free form of Frame: callers reusing a scratch buffer must
// hand the result only to transports that copy (netsim does) and must
// not retain it past the buffer's next use.
func AppendFrame(buf []byte, h wire.DataHeader, data []byte) []byte {
	buf = append(buf, wire.ProtoData)
	return wire.AppendData(buf, h, data)
}

// NewFrameInto is the scratch-buffer form of NewFrame: it assigns the
// next sequence number and appends the framed datagram to buf[:0].
// The same retention caveats as AppendFrame apply.
func (p *Plane) NewFrameInto(buf []byte, dst int, data []byte) []byte {
	p.seq++
	h := wire.DataHeader{
		Origin: uint16(p.node),
		Final:  uint16(dst),
		TTL:    uint8(p.ttl),
		Seq:    p.seq,
	}
	return AppendFrame(buf[:0], h, data)
}

// Classify decodes a ProtoData body and decides its fate. For Forward
// verdicts the returned header's TTL is already decremented; the
// caller re-frames it with Frame after picking a next hop.
func (p *Plane) Classify(body []byte) (wire.DataHeader, []byte, Action) {
	h, data, err := wire.UnmarshalData(body)
	if err != nil {
		return h, nil, Ignore
	}
	if int(h.Final) == p.node {
		return h, data, Deliver
	}
	if h.TTL <= 1 {
		return h, data, Drop
	}
	h.TTL--
	if final := int(h.Final); final < 0 || final >= p.nodes {
		return h, data, Drop
	}
	return h, data, Forward
}

// CanQueue reports whether discovery queueing is enabled.
func (p *Plane) CanQueue() bool { return p.capacity > 0 }

// Enqueue buffers a frame for dst while discovery is in flight. When
// the queue is full the oldest frames are evicted — deterministically,
// from the head — so the freshest traffic survives the wait, and the
// overflow counter records exactly one increment per evicted frame: a
// burst that displaces several frames in one call counts each loss
// once, never more. With queueing disabled (capacity 0) the frame
// itself is the eviction.
func (p *Plane) Enqueue(dst int, frame []byte) {
	q := p.queued[dst]
	if p.capacity <= 0 {
		if p.overflow != nil {
			p.overflow.Inc()
		}
		return
	}
	for len(q) >= p.capacity {
		copy(q, q[1:])
		q = q[:len(q)-1]
		if p.overflow != nil {
			p.overflow.Inc()
		}
	}
	p.queued[dst] = append(q, frame)
}

// QueueLen returns the number of frames queued for dst.
func (p *Plane) QueueLen(dst int) int { return len(p.queued[dst]) }

// Queued returns the total number of frames parked across all
// discovery queues — the backlog figure the daemon status reporter
// exposes.
func (p *Plane) Queued() int {
	n := 0
	for _, q := range p.queued {
		n += len(q)
	}
	return n
}

// Flush removes and returns dst's queue (nil when empty).
func (p *Plane) Flush(dst int) [][]byte {
	q := p.queued[dst]
	if q != nil {
		delete(p.queued, dst)
	}
	return q
}
