// Package failover implements a family of static fast-failover
// routing variants: forwarding is entirely precomputed and reacts to
// failures using only locally sensible information — physical-layer
// carrier on the node's own ports — with no control plane, no probes,
// and no convergence delay. This is the "static resilience" point in
// the design space the DRS paper's dynamic protocol is evaluated
// against: failover is instantaneous, but only failures the carrier
// sensor can see are survivable (a fail-stopped daemon keeps its link
// lights on and blackholes traffic forever).
//
// Three variants, in increasing sophistication:
//
//   - Rotor (BuildRotor): per destination, rotate through the direct
//     rails in a fixed circular order and use the first with carrier.
//     No forwarding at all — if every direct rail is dead the packet
//     is lost, even when a relay path exists.
//   - Arborescence (BuildArbor): per destination, a precomputed
//     candidate sequence of destination-rooted spanning trees — the
//     direct rails first, then relay hops. Relays forward using their
//     own table, so mixed-rail failures (sender dead on one rail,
//     receiver dead on the other) are survivable.
//   - Bounce (NewBounce): the header-rewriting variant. The packet
//     carries its failover state — the index of the tree it is
//     following — in a wire.FailoverHeader, rewritten strictly upward
//     at every reroute. Loop-freedom needs no TTL: a packet can never
//     revisit a node in the same header state, because the state only
//     grows and each tree is loop-free.
//
// The rotor and arborescence variants share one table-driven Router;
// New accepts an arbitrary Table without semantic validation, which
// lets tests run deliberately broken tables under the invariant
// checker to prove the checker catches real loops.
package failover

import (
	"fmt"
	"sync"

	"drsnet/internal/dataplane"
	"drsnet/internal/metrics"
	"drsnet/internal/routing"
	"drsnet/internal/routing/wire"
	"drsnet/internal/transport"
)

// Sensor is the physical-layer carrier oracle: whether this node's
// port on rail currently has end-to-end carrier to peer (loss-of-
// signal / link-layer keepalive, as hardware fast-failover groups
// use). It deliberately cannot see whether peer's daemon is alive.
type Sensor interface {
	CarrierUp(peer, rail int) bool
}

// CtrReroutes counts datagrams that left on a non-primary candidate —
// the static family's analogue of a repair.
const CtrReroutes = "failover.reroutes"

// Hop is one precomputed forwarding alternative: transmit on Rail to
// Via (Via == final destination means a direct hop).
type Hop struct {
	Rail int
	Via  int
}

// Table is one node's complete static forwarding state: for every
// destination, an ordered candidate list tried first-carrier-wins.
type Table struct {
	Node int
	// Next[dst] is the candidate sequence for dst (empty for dst ==
	// Node).
	Next [][]Hop
}

// relayGroups returns how many relay candidates the precomputed
// tables route through: two — (dst+1) and (dst+2) mod nodes — so that
// even when one candidate coincides with the sender (degenerating to
// a direct hop) a genuine relay remains. Zero when the cluster has no
// third node to relay through.
func relayGroups(nodes int) int {
	if nodes < 3 {
		return 0
	}
	return 2
}

// BuildRotor precomputes the rotor table for node: direct rails only,
// in circular order starting at dst mod rails so destinations spread
// load across rails.
func BuildRotor(node, nodes, rails int) Table {
	t := Table{Node: node, Next: make([][]Hop, nodes)}
	for dst := 0; dst < nodes; dst++ {
		if dst == node {
			continue
		}
		for k := 0; k < rails; k++ {
			t.Next[dst] = append(t.Next[dst], Hop{Rail: (dst + k) % rails, Via: dst})
		}
	}
	return t
}

// BuildArbor precomputes the arborescence table for node: the rotor's
// direct rails first, then relay alternatives through up to two
// deterministic relays ((dst+1) mod nodes, (dst+2) mod nodes) on each
// rail. When this node is itself the designated relay the alternative
// degenerates to a direct hop on that rail.
func BuildArbor(node, nodes, rails int) Table {
	t := BuildRotor(node, nodes, rails)
	for dst := 0; dst < nodes; dst++ {
		if dst == node {
			continue
		}
		for j := 0; j < relayGroups(nodes); j++ {
			relay := (dst + 1 + j) % nodes
			for r := 0; r < rails; r++ {
				hop := Hop{Rail: r, Via: relay}
				if relay == dst || relay == node {
					hop.Via = dst
				}
				t.Next[dst] = append(t.Next[dst], hop)
			}
		}
	}
	return t
}

// Validate bounds-checks a table against the cluster shape. It does
// NOT verify loop-freedom — that is the invariant harness's job, and
// tests rely on being able to run semantically broken tables.
func Validate(t Table, nodes, rails int) error {
	if t.Node < 0 || t.Node >= nodes {
		return fmt.Errorf("failover: table node %d out of range [0,%d)", t.Node, nodes)
	}
	if len(t.Next) != nodes {
		return fmt.Errorf("failover: table covers %d destinations, cluster has %d", len(t.Next), nodes)
	}
	for dst, hops := range t.Next {
		if dst == t.Node && len(hops) != 0 {
			return fmt.Errorf("failover: table routes to self")
		}
		for _, h := range hops {
			if h.Rail < 0 || h.Rail >= rails {
				return fmt.Errorf("failover: dst %d: rail %d out of range [0,%d)", dst, h.Rail, rails)
			}
			if h.Via < 0 || h.Via >= nodes || h.Via == t.Node {
				return fmt.Errorf("failover: dst %d: bad via %d", dst, h.Via)
			}
		}
	}
	return nil
}

// Config tunes a failover router.
type Config struct {
	// TTL stamps originated ProtoData frames of the table-driven
	// variants (0 = 6). It is defence in depth, not the loop-freedom
	// mechanism.
	TTL int
	// HopLimit is the bounce variant's hop odometer budget (0 = 8).
	HopLimit int
}

func (c Config) ttl() int {
	if c.TTL <= 0 {
		return 6
	}
	return c.TTL
}

func (c Config) hopLimit() int {
	if c.HopLimit <= 0 {
		return 8
	}
	return c.HopLimit
}

// Router is the shared table-driven data plane of the rotor and
// arborescence variants: stateless first-carrier-wins selection over
// a precomputed candidate list, ordinary ProtoData frames.
type Router struct {
	mu      sync.Mutex
	tr      transport.Transport
	sensor  Sensor
	table   Table
	plane   *dataplane.Plane
	deliver func(src int, data []byte)
	mset    *metrics.Set
	started bool
	stopped bool
}

// New returns a router running an arbitrary table. The table is
// bounds-checked only; callers own its semantics.
func New(tr transport.Transport, sensor Sensor, table Table, cfg Config) (*Router, error) {
	if tr == nil {
		return nil, fmt.Errorf("failover: nil transport")
	}
	if sensor == nil {
		return nil, fmt.Errorf("failover: nil carrier sensor")
	}
	if table.Node != tr.Node() {
		return nil, fmt.Errorf("failover: table for node %d on node %d", table.Node, tr.Node())
	}
	if err := Validate(table, tr.Nodes(), tr.Rails()); err != nil {
		return nil, err
	}
	mset := metrics.NewSet()
	return &Router{
		tr:     tr,
		sensor: sensor,
		table:  table,
		plane:  dataplane.New(tr.Node(), tr.Nodes(), cfg.ttl(), 0, nil),
		mset:   mset,
	}, nil
}

// NewRotor returns the circular direct-rail variant.
func NewRotor(tr transport.Transport, sensor Sensor, cfg Config) (*Router, error) {
	if tr == nil {
		return nil, fmt.Errorf("failover: nil transport")
	}
	return New(tr, sensor, BuildRotor(tr.Node(), tr.Nodes(), tr.Rails()), cfg)
}

// NewArbor returns the arborescence variant.
func NewArbor(tr transport.Transport, sensor Sensor, cfg Config) (*Router, error) {
	if tr == nil {
		return nil, fmt.Errorf("failover: nil transport")
	}
	return New(tr, sensor, BuildArbor(tr.Node(), tr.Nodes(), tr.Rails()), cfg)
}

// Start implements routing.Router.
func (r *Router) Start() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started {
		return fmt.Errorf("failover: router started twice")
	}
	r.started = true
	r.tr.SetReceiver(r.onFrame)
	return nil
}

// Stop implements routing.Router.
func (r *Router) Stop() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stopped = true
}

// SetDeliverFunc implements routing.Router.
func (r *Router) SetDeliverFunc(fn func(src int, data []byte)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.deliver = fn
}

// Metrics implements routing.Router.
func (r *Router) Metrics() *metrics.Set { return r.mset }

// pick returns the first candidate for dst with live carrier, and its
// index (-1 when none).
func (r *Router) pick(dst int) (Hop, int) {
	for i, h := range r.table.Next[dst] {
		if r.sensor.CarrierUp(h.Via, h.Rail) {
			return h, i
		}
	}
	return Hop{}, -1
}

// SendData implements routing.Router.
func (r *Router) SendData(dst int, data []byte) error {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return routing.ErrStopped
	}
	if dst < 0 || dst >= r.tr.Nodes() || dst == r.tr.Node() {
		r.mu.Unlock()
		return fmt.Errorf("failover: bad destination %d", dst)
	}
	frame := r.plane.NewFrame(dst, data)
	hop, idx := r.pick(dst)
	r.mu.Unlock()

	if idx < 0 {
		r.mset.Counter(routing.CtrDataNoRoute).Inc()
		return routing.ErrNoRoute
	}
	r.mset.Counter(routing.CtrDataSent).Inc()
	if idx > 0 {
		r.mset.Counter(CtrReroutes).Inc()
	}
	return r.tr.Send(hop.Rail, hop.Via, frame)
}

func (r *Router) onFrame(rail, src int, payload []byte) {
	proto, body, err := wire.SplitEnvelope(payload)
	if err != nil || proto != wire.ProtoData {
		return
	}
	r.mu.Lock()
	h, data, action := r.plane.Classify(body)
	stopped := r.stopped
	deliver := r.deliver
	var hop Hop
	idx := -1
	if action == dataplane.Forward {
		hop, idx = r.pick(int(h.Final))
	}
	r.mu.Unlock()
	if stopped {
		return
	}
	switch action {
	case dataplane.Deliver:
		r.mset.Counter(routing.CtrDataDelivered).Inc()
		if deliver != nil {
			deliver(int(h.Origin), data)
		}
	case dataplane.Forward:
		if idx < 0 {
			r.mset.Counter(routing.CtrDataDropped).Inc()
			return
		}
		r.mset.Counter(routing.CtrDataForwarded).Inc()
		if idx > 0 {
			r.mset.Counter(CtrReroutes).Inc()
		}
		r.tr.Send(hop.Rail, hop.Via, dataplane.Frame(h, data))
	case dataplane.Drop:
		r.mset.Counter(routing.CtrDataDropped).Inc()
	}
}

var _ routing.Router = (*Router)(nil)
