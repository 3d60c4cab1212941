package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"drsnet/internal/clock"
)

// Mem is an in-memory cluster fabric: every node's Transport is a
// method-call pair into shared state, with delivery deferred through
// a clock.Clock. Under a deterministic clock (simtime.Clock, or a
// drained clock.NewManual) a multi-daemon test is fully deterministic
// and needs no sockets; under a live clock it behaves like a zero-loss
// LAN.
//
// Fault injection mirrors netsim's crash semantics: FailNode
// blackholes a node in both directions, RestoreNode brings it back
// with all NICs up; SetNIC kills or revives one (node, rail) NIC.
// Receiver state is checked at delivery time, so frames in flight to
// a node that crashes mid-latency are dropped.
//
// The frame path reads NIC, crash and receiver state through atomics,
// as transport.UDP reads its receiver; the only lock guards the
// delivery-record freelist.
type Mem struct {
	clk     clock.Clock
	latency time.Duration
	rails   int
	nodes   []*MemNode
	mu      sync.Mutex   // guards free
	free    *memDelivery // recycled delivery records
}

// memDelivery is one frame in flight: the fabric's copy of the payload
// and where it is going. Records cycle through Mem.free and the clock
// recycles its own timer records, so a steady exchange allocates
// nothing.
type memDelivery struct {
	m              *Mem
	rail, src, dst int
	body           []byte
	next           *memDelivery
}

// MemNode is one node's Transport into a Mem fabric.
type MemNode struct {
	m     *Mem
	node  int
	recv  atomic.Pointer[func(rail, src int, payload []byte)]
	nicUp []atomic.Bool // per rail
	down  atomic.Bool   // crashed: blackhole both directions
}

// NewMem builds an in-memory fabric of nodes×rails with the given
// one-way delivery latency. All NICs start up.
func NewMem(nodes, rails int, clk clock.Clock, latency time.Duration) *Mem {
	if nodes < 1 || rails < 1 {
		panic(fmt.Sprintf("transport: invalid Mem shape %d nodes × %d rails", nodes, rails))
	}
	if latency < 0 {
		panic("transport: negative Mem latency")
	}
	m := &Mem{clk: clk, latency: latency, rails: rails}
	m.nodes = make([]*MemNode, nodes)
	for i := range m.nodes {
		n := &MemNode{m: m, node: i, nicUp: make([]atomic.Bool, rails)}
		for r := range n.nicUp {
			n.nicUp[r].Store(true)
		}
		m.nodes[i] = n
	}
	return m
}

// Node returns node i's Transport.
func (m *Mem) Node(i int) *MemNode { return m.nodes[i] }

// FailNode crashes node i: every frame to or from it is dropped until
// RestoreNode.
func (m *Mem) FailNode(i int) { m.nodes[i].down.Store(true) }

// RestoreNode revives node i with all NICs up. The NICs come up before
// the crash flag clears, so a frame that sees the node alive also sees
// its NICs up.
func (m *Mem) RestoreNode(i int) {
	n := m.nodes[i]
	for r := range n.nicUp {
		n.nicUp[r].Store(true)
	}
	n.down.Store(false)
}

// SetNIC sets the up/down state of node i's NIC on rail.
func (m *Mem) SetNIC(i, rail int, up bool) { m.nodes[i].nicUp[rail].Store(up) }

// up reports whether the node is alive and its NIC on rail is up.
func (n *MemNode) up(rail int) bool { return !n.down.Load() && n.nicUp[rail].Load() }

// Node implements Transport.
func (n *MemNode) Node() int { return n.node }

// Nodes implements Transport.
func (n *MemNode) Nodes() int { return len(n.m.nodes) }

// Rails implements Transport.
func (n *MemNode) Rails() int { return n.m.rails }

// SetReceiver implements Transport.
func (n *MemNode) SetReceiver(fn func(rail, src int, payload []byte)) {
	if fn == nil {
		n.recv.Store(nil)
		return
	}
	n.recv.Store(&fn)
}

// Send implements Transport. The payload is copied per destination —
// callers reuse their buffers — and delivery is scheduled after the
// fabric latency, re-checking the receiver's NIC and crash state at
// delivery time.
func (n *MemNode) Send(rail, dst int, payload []byte) error {
	m := n.m
	if rail < 0 || rail >= m.rails {
		return fmt.Errorf("transport: rail %d out of range [0,%d)", rail, m.rails)
	}
	if dst != Broadcast && (dst < 0 || dst >= len(m.nodes)) {
		return fmt.Errorf("transport: dst %d out of range [0,%d)", dst, len(m.nodes))
	}
	if dst == Broadcast {
		for i := range m.nodes {
			if i != n.node {
				n.deliverAfter(rail, i, payload)
			}
		}
		return nil
	}
	if dst != n.node { // no loopback rail
		n.deliverAfter(rail, dst, payload)
	}
	return nil
}

// deliverAfter puts one copy of payload in flight to dst, unless the
// sender is crashed or its NIC dead: then the frame silently vanishes.
func (n *MemNode) deliverAfter(rail, dst int, payload []byte) {
	if !n.up(rail) {
		return
	}
	m := n.m
	m.mu.Lock()
	d := m.free
	if d != nil {
		m.free = d.next
	} else {
		d = &memDelivery{m: m}
	}
	m.mu.Unlock()
	d.rail, d.src, d.dst = rail, n.node, dst
	d.body = append(d.body[:0], payload...)
	m.clk.AfterCall(m.latency, runDelivery, d)
}

// runDelivery is the clock callback for a *memDelivery.
func runDelivery(d any) { d.(*memDelivery).run() }

// run hands the frame to its receiver, if that is still up, and
// recycles the record once the receiver has returned.
func (d *memDelivery) run() {
	m := d.m
	if to := m.nodes[d.dst]; to.up(d.rail) {
		if recv := to.recv.Load(); recv != nil {
			(*recv)(d.rail, d.src, d.body)
		}
	}
	m.mu.Lock()
	d.next = m.free
	m.free = d
	m.mu.Unlock()
}

var _ Transport = (*MemNode)(nil)
