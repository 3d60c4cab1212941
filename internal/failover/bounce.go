package failover

import (
	"fmt"
	"sync"

	"drsnet/internal/metrics"
	"drsnet/internal/routing"
	"drsnet/internal/routing/wire"
	"drsnet/internal/transport"
)

// Bounce is the header-rewriting static fast-failover variant. All
// nodes share one global, precomputed sequence of destination-rooted
// trees; a packet's wire.FailoverHeader carries the index of the tree
// it is currently following (Attempt). A node holding the packet
// forwards along its own edge in that tree if the edge has carrier,
// and otherwise scans strictly forward through the sequence — so the
// header state is monotone, the packet may legally bounce back to a
// node it has visited (in a new state), and termination needs no TTL:
// every tree is loop-free and the tree index can only grow.
//
// The tree sequence for destination d, rails R, relays w_j =
// (d+1+j) mod N:
//
//	k in [0,R):  direct to d on rail (d+k) mod R
//	then, for each relay j, each approach rail ra, each final rail rb:
//	             everyone sends to w_j on rail ra; w_j sends direct to
//	             d on rail rb
//
// Enumerating full (ra, rb) rail pairs is what lets the packet
// survive mixed-rail failures (sender dead on rail 0, receiver dead
// on rail 1) while keeping every tree static.
type Bounce struct {
	mu       sync.Mutex
	tr       transport.Transport
	sensor   Sensor
	nodes    int
	rails    int
	relays   int
	trees    int
	hopLimit int
	seq      uint32
	deliver  func(src int, data []byte)
	mset     *metrics.Set
	started  bool
	stopped  bool
}

// NewBounce returns the header-rewriting variant.
func NewBounce(tr transport.Transport, sensor Sensor, cfg Config) (*Bounce, error) {
	if tr == nil {
		return nil, fmt.Errorf("failover: nil transport")
	}
	if sensor == nil {
		return nil, fmt.Errorf("failover: nil carrier sensor")
	}
	nodes, rails := tr.Nodes(), tr.Rails()
	relays := relayGroups(nodes)
	trees := rails + relays*rails*rails
	if trees > 256 {
		return nil, fmt.Errorf("failover: %d trees exceed the 8-bit attempt space", trees)
	}
	return &Bounce{
		tr:       tr,
		sensor:   sensor,
		nodes:    nodes,
		rails:    rails,
		relays:   relays,
		trees:    trees,
		hopLimit: cfg.hopLimit(),
		mset:     metrics.NewSet(),
	}, nil
}

// edge returns this node's forwarding edge for dst in tree k.
func (b *Bounce) edge(dst, k int) (rail, via int) {
	if k < b.rails {
		return (dst + k) % b.rails, dst
	}
	i := k - b.rails
	j := i / (b.rails * b.rails)
	ra := (i / b.rails) % b.rails
	rb := i % b.rails
	relay := (dst + 1 + j) % b.nodes
	if relay == dst || relay == b.tr.Node() {
		// Degenerate tree: this node is the relay (or the cluster is
		// too small for one) — the edge is the relay's final leg.
		return rb, dst
	}
	return ra, relay
}

// forward scans trees from attempt for a live edge toward h.Final and
// sends the packet along it, rewriting the header. It reports the
// tree used (-1 when every remaining tree is dead).
func (b *Bounce) forward(h wire.FailoverHeader, data []byte) int {
	dst := int(h.Final)
	for k := int(h.Attempt); k < b.trees; k++ {
		rail, via := b.edge(dst, k)
		if !b.sensor.CarrierUp(via, rail) {
			continue
		}
		h.Attempt = uint8(k)
		h.Hops++
		b.tr.Send(rail, via, wire.Envelope(wire.ProtoFailover, wire.MarshalFailover(h, data)))
		return k
	}
	return -1
}

// Start implements routing.Router.
func (b *Bounce) Start() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.started {
		return fmt.Errorf("failover: bounce router started twice")
	}
	b.started = true
	b.tr.SetReceiver(b.onFrame)
	return nil
}

// Stop implements routing.Router.
func (b *Bounce) Stop() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.stopped = true
}

// SetDeliverFunc implements routing.Router.
func (b *Bounce) SetDeliverFunc(fn func(src int, data []byte)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.deliver = fn
}

// Metrics implements routing.Router.
func (b *Bounce) Metrics() *metrics.Set { return b.mset }

// SendData implements routing.Router.
func (b *Bounce) SendData(dst int, data []byte) error {
	b.mu.Lock()
	if b.stopped {
		b.mu.Unlock()
		return routing.ErrStopped
	}
	if dst < 0 || dst >= b.nodes || dst == b.tr.Node() {
		b.mu.Unlock()
		return fmt.Errorf("failover: bad destination %d", dst)
	}
	b.seq++
	h := wire.FailoverHeader{
		Origin: uint16(b.tr.Node()),
		Final:  uint16(dst),
		Seq:    b.seq,
	}
	used := b.forward(h, data)
	b.mu.Unlock()

	if used < 0 {
		b.mset.Counter(routing.CtrDataNoRoute).Inc()
		return routing.ErrNoRoute
	}
	b.mset.Counter(routing.CtrDataSent).Inc()
	if used > 0 {
		b.mset.Counter(CtrReroutes).Inc()
	}
	return nil
}

func (b *Bounce) onFrame(rail, src int, payload []byte) {
	proto, body, err := wire.SplitEnvelope(payload)
	if err != nil || proto != wire.ProtoFailover {
		return
	}
	h, data, err := wire.UnmarshalFailover(body)
	if err != nil {
		return
	}
	b.mu.Lock()
	stopped := b.stopped
	deliver := b.deliver
	b.mu.Unlock()
	if stopped {
		return
	}

	if int(h.Final) == b.tr.Node() {
		b.mset.Counter(routing.CtrDataDelivered).Inc()
		if deliver != nil {
			deliver(int(h.Origin), data)
		}
		return
	}
	if int(h.Final) >= b.nodes || int(h.Hops) >= b.hopLimit {
		// Corrupt destination, or the odometer budget is spent —
		// defence in depth against damaged headers.
		b.mset.Counter(routing.CtrDataDropped).Inc()
		return
	}
	b.mu.Lock()
	used := b.forward(h, data)
	b.mu.Unlock()
	if used < 0 {
		b.mset.Counter(routing.CtrDataDropped).Inc()
		return
	}
	b.mset.Counter(routing.CtrDataForwarded).Inc()
	if used > int(h.Attempt) {
		b.mset.Counter(CtrReroutes).Inc()
	}
}

var _ routing.Router = (*Bounce)(nil)
