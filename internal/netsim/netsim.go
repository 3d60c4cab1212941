// Package netsim is a deterministic, packet-level discrete-event
// simulator of the cluster network the DRS runs on: dual (or more)
// shared 100 Mb/s segments — the paper's non-meshed back planes — with
// one NIC per node per segment.
//
// The simulator models what matters to the survivability study:
//
//   - shared-medium serialization: a segment transmits one frame at a
//     time at its line rate, so probe traffic genuinely consumes
//     bandwidth and the Figure 1 cost model can be verified
//     empirically;
//   - propagation latency;
//   - component failures: any NIC or segment can be failed and
//     restored at any simulated instant, silently eating frames the
//     way real broken hardware does;
//   - gray failures: a NIC can fail in one direction only (TX-dead
//     but RX-alive, or the reverse), and any component can carry an
//     Impairment — per-frame loss, extra delay and jitter, payload
//     corruption — that degrades traffic without killing it. The
//     internal/chaos package schedules these over time;
//   - broadcast: a frame addressed to Broadcast is delivered to every
//     live NIC on the segment, which the DRS relay discovery uses.
//
// It deliberately omits CSMA/CD collisions (the hub arbitrates
// perfectly) and variable queueing inside hosts; neither affects which
// component failures sever communication, and the paper's own
// simulation abstracts at the same level.
package netsim

import (
	"fmt"
	"time"

	"drsnet/internal/simtime"
	"drsnet/internal/topology"
)

// Broadcast is the destination node meaning "every node on the
// segment".
const Broadcast = -1

// Default wire parameters, matching the Figure 1 cost model.
const (
	DefaultRate          = 100e6 // bits/s
	DefaultLatency       = 5 * time.Microsecond
	DefaultOverheadBytes = 38 // 14 MAC + 4 FCS + 8 preamble + 12 IFG
	DefaultMinFrameBytes = 84 // minimum on-wire occupancy
)

// Params configures the physical layer.
type Params struct {
	// Rate is each segment's capacity in bits/s.
	Rate float64
	// Latency is the propagation delay from transmitter to receivers.
	Latency time.Duration
	// OverheadBytes is added to every payload for serialization
	// accounting (MAC header, FCS, preamble, inter-frame gap).
	OverheadBytes int
	// MinFrameBytes floors the on-wire size of a frame.
	MinFrameBytes int
	// LossRate drops each delivered frame independently with this
	// probability, modelling a flaky (but not failed) link.
	LossRate float64
	// Switched replaces each shared hub with a store-and-forward
	// switch: every node gets a dedicated full-rate port, frames
	// serialize on the sender's ingress and the receiver's egress
	// instead of on one shared medium, and concurrent flows between
	// disjoint node pairs no longer contend. Broadcast replicates the
	// frame onto every egress port. This is the "alternative network
	// topology" ablation: the same protocols, a fabric with N× the
	// aggregate capacity.
	Switched bool
}

// DefaultParams returns the paper's 100 Mb/s configuration.
func DefaultParams() Params {
	return Params{
		Rate:          DefaultRate,
		Latency:       DefaultLatency,
		OverheadBytes: DefaultOverheadBytes,
		MinFrameBytes: DefaultMinFrameBytes,
	}
}

func (p Params) validate() error {
	if !(p.Rate > 0) {
		return fmt.Errorf("netsim: rate must be positive, have %v", p.Rate)
	}
	if p.Latency < 0 {
		return fmt.Errorf("netsim: negative latency")
	}
	if p.OverheadBytes < 0 || p.MinFrameBytes < 0 {
		return fmt.Errorf("netsim: negative frame size parameter")
	}
	if p.LossRate < 0 || p.LossRate >= 1 {
		return fmt.Errorf("netsim: loss rate %v outside [0,1)", p.LossRate)
	}
	return nil
}

// Direction selects which half of a NIC's duplex path an operation
// applies to. Back planes have no direction: any Direction acts on the
// whole segment.
type Direction int

const (
	// DirBoth addresses both halves of the path (the classic
	// fail-stop model).
	DirBoth Direction = iota
	// DirTx addresses only the transmit half: the component silently
	// eats everything it is asked to send but still receives.
	DirTx
	// DirRx addresses only the receive half.
	DirRx
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case DirBoth:
		return "both"
	case DirTx:
		return "tx"
	case DirRx:
		return "rx"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Impairment degrades a component without killing it — the gray
// failures the fail-stop model cannot express. An impairment on a NIC
// applies to frames crossing that NIC (transmit side for the sender's
// NIC, receive side for a receiver's); an impairment on a back plane
// applies once per frame at transmit time. The zero value is no
// impairment.
type Impairment struct {
	// Loss drops each frame crossing the component independently with
	// this probability.
	Loss float64
	// Corrupt flips one random payload byte with this probability; the
	// mangled frame is still delivered, so receivers must survive
	// garbage (their codecs reject it).
	Corrupt float64
	// Delay adds fixed extra latency to every frame crossing the
	// component.
	Delay time.Duration
	// Jitter adds uniform random extra latency in [0, Jitter).
	Jitter time.Duration
}

// IsZero reports whether the impairment has no effect at all.
func (imp Impairment) IsZero() bool {
	return imp.Loss == 0 && imp.Corrupt == 0 && imp.Delay == 0 && imp.Jitter == 0
}

// Validate rejects impairments outside the model: probabilities must
// lie in [0,1] and time offsets must be non-negative.
func (imp Impairment) Validate() error {
	if imp.Loss < 0 || imp.Loss > 1 {
		return fmt.Errorf("netsim: impairment loss %v outside [0,1]", imp.Loss)
	}
	if imp.Corrupt < 0 || imp.Corrupt > 1 {
		return fmt.Errorf("netsim: impairment corrupt probability %v outside [0,1]", imp.Corrupt)
	}
	if imp.Delay < 0 {
		return fmt.Errorf("netsim: negative impairment delay %v", imp.Delay)
	}
	if imp.Jitter < 0 {
		return fmt.Errorf("netsim: negative impairment jitter %v", imp.Jitter)
	}
	return nil
}

// Frame is one delivered datagram.
type Frame struct {
	Src     int // sending node
	Dst     int // destination node, or Broadcast
	Rail    int // segment the frame travelled on
	Payload []byte
}

// Handler receives frames addressed to (or broadcast past) a node.
// Handlers run inside scheduler events: they may send frames and set
// timers but must not block. fr.Payload belongs to the network: it is
// valid, and must be left unmodified, only until the handler returns —
// a handler that keeps any of the bytes copies them first.
type Handler func(fr Frame)

// Tap observes every frame crossing the network, for invariant
// checkers and protocol analyzers. A tap is purely observational: it
// must not send frames or mutate the network, and it draws no
// randomness, so installing one never perturbs a seeded run.
type Tap interface {
	// FrameSent fires once per Send call that passes validation, at
	// simulated time at, before any drop accounting — a frame eaten by
	// a dead NIC or an impairment is still reported here, because the
	// packet existed. fr.Dst may be Broadcast.
	FrameSent(at time.Duration, fr Frame)
	// FrameDelivered fires at actual delivery into a node's handler
	// (fr.Dst is the receiving node, never Broadcast), after every
	// drop check, with the payload as the handler sees it (corrupted
	// frames report their mangled bytes). As for a Handler, fr.Payload
	// is only valid until the call returns; FrameSent's payload is the
	// sender's buffer and is just as short-lived.
	FrameDelivered(at time.Duration, fr Frame)
}

// SegmentStats counts traffic on one segment.
type SegmentStats struct {
	FramesSent      int64
	FramesDelivered int64
	// BitsSent is the on-wire serialization cost of everything
	// transmitted, including overhead and minimum-frame padding.
	BitsSent float64
	// Drops by cause.
	DroppedTxNIC   int64 // sender's NIC was down
	DroppedSegment int64 // segment was down at transmit or delivery
	DroppedRxNIC   int64 // receiver's NIC was down
	DroppedLoss    int64 // random loss (Params.LossRate)
	// DroppedImpaired counts frames eaten by a gray-failure
	// impairment's loss process (chaos layer).
	DroppedImpaired int64
	// DroppedNodeDown counts frames blackholed because the node's
	// daemon process was fail-stopped (crash lifecycle): the NICs are
	// electrically up but nothing behind them sends or receives.
	DroppedNodeDown int64
	// DroppedPartitioned counts frames eaten by an installed network
	// partition (Partition): the directed (src, dst, rail) path was
	// blocked at delivery time.
	DroppedPartitioned int64
	// Corrupted counts frames whose payload was mangled in transit by
	// an impairment; they still occupy the wire and are delivered.
	Corrupted int64
}

type segment struct {
	busyUntil simtime.Time
	// lane queues the hub's deliveries in busy-clock order (see
	// simtime.Lane).
	lane simtime.Lane
	// Per-node port clocks, used only in switched mode.
	ingressBusy []simtime.Time
	egressBusy  []simtime.Time
	stats       SegmentStats
}

// Network is one simulated cluster network: the shared-segment (or
// per-rail switched) timing model over the common fault state.
type Network struct {
	state
	cluster topology.Cluster
	segs    []segment
	// part holds the installed network partitions (nil until the first
	// Partition, so partition-free runs pay nothing): directed
	// (src, dst, rail) paths whose frames vanish at delivery.
	part map[partKey]struct{}
	// Delivery-event recycling: hub-mode deliveries are never
	// cancelled, so their event records — each with its own scheduler
	// timer, bound once to deliverEv, and its own payload copy — cycle
	// through a freelist instead of allocating a fresh closure, timer
	// and buffer per frame.
	freeEv    *frameEvent
	deliverEv func(any)
	// records counts the frame records made, free or in flight: a fork
	// starts with as many, so its sends draw on a pool as warm as the
	// source's (see Fork).
	records int
	// block backs the records a fork starts with; forking into the
	// network again rebuilds them in place (see Fork).
	block []frameEvent
	// rx[node] is node's copy of the broadcast it is receiving, reused
	// from one broadcast to the next.
	rx [][]byte
	// fabric is the Fabric view of the cluster, built once on demand.
	fabric *topology.Fabric
}

// frameEvent carries one in-flight hub-mode frame through the
// scheduler without a per-send closure, in 128 bytes: the Frame its
// handlers see is built at delivery, around the event's own payload
// copy.
type frameEvent struct {
	tm             simtime.Timer // bound to deliverEvent(ev) when the record is made
	p              payload
	next           *frameEvent
	src, dst, rail int32
}

// New builds a healthy network for the given cluster shape on the
// given scheduler. seed feeds the (optional) random-loss process.
func New(sched *simtime.Scheduler, cluster topology.Cluster, params Params, seed uint64) (*Network, error) {
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	st, err := newState(sched, params, cluster.Nodes, cluster.Rails, cluster.Components(), seed)
	if err != nil {
		return nil, err
	}
	n := &Network{state: st, cluster: cluster, segs: make([]segment, cluster.Rails), rx: make([][]byte, cluster.Nodes)}
	n.deliverEv = n.deliverEvent
	if params.Switched {
		for r := range n.segs {
			n.segs[r].ingressBusy = make([]simtime.Time, cluster.Nodes)
			n.segs[r].egressBusy = make([]simtime.Time, cluster.Nodes)
		}
	}
	return n, nil
}

// Cluster returns the cluster shape.
func (n *Network) Cluster() topology.Cluster { return n.cluster }

// Fabric returns the fabric view of the cluster — same component
// numbering, back planes exposed as switches. Built once, on demand.
func (n *Network) Fabric() *topology.Fabric {
	if n.fabric == nil {
		f, err := topology.FromCluster(n.cluster)
		if err != nil {
			panic(err) // cluster was validated in New
		}
		n.fabric = f
	}
	return n.fabric
}

// segUp reports whether rail's back plane is up.
func (n *Network) segUp(rail int) bool { return n.txUp[n.nodes*n.ports+rail] }

// Send transmits payload from src to dst on rail. dst may be
// Broadcast. The call never blocks and never reports delivery
// failures: like real hardware, a frame sent into a broken NIC or
// dead segment silently vanishes (the drop is counted in
// SegmentStats). An error is returned only for malformed requests.
func (n *Network) Send(src, rail, dst int, payload []byte) error {
	if err := n.checkSend(src, rail, dst); err != nil {
		return err
	}
	seg := &n.segs[rail]
	seg.stats.FramesSent++
	if n.tap != nil {
		n.tap.FrameSent(n.sched.Now().Duration(), Frame{Src: src, Dst: dst, Rail: rail, Payload: payload})
	}
	if !n.nodeUp[src] {
		seg.stats.DroppedNodeDown++
		return nil
	}
	if !n.txUp[n.nic(src, rail)] {
		seg.stats.DroppedTxNIC++
		return nil
	}
	if !n.segUp(rail) {
		seg.stats.DroppedSegment++
		return nil
	}
	// The sender's NIC impairment, then the segment's.
	drop, extra, corrupt := n.impair2(n.nic(src, rail), topology.Component(n.nodes*n.ports+rail))
	if drop {
		seg.stats.DroppedImpaired++
		return nil
	}

	txTime, bits := n.wireTime(len(payload))

	if n.params.Switched {
		// Copy the payload: the sender may reuse its buffer.
		data := append([]byte(nil), payload...)
		if corrupt {
			n.mangle(data)
			seg.stats.Corrupted++
		}
		fr := Frame{Src: src, Dst: dst, Rail: rail, Payload: data}
		n.sendSwitched(seg, fr, txTime, bits, extra)
		return nil
	}

	// Shared medium (hub): one frame at a time on the whole segment.
	end := occupy(&seg.busyUntil, n.sched.Now(), txTime)
	seg.stats.BitsSent += bits
	ev := n.frameRecord()
	// The sender may reuse its buffer: the event keeps its own copy.
	ev.p.set(payload)
	if corrupt {
		n.mangle(ev.p.bytes())
		seg.stats.Corrupted++
	}
	ev.src, ev.dst, ev.rail = int32(src), int32(dst), int32(rail)
	n.sched.LaneTimer(&seg.lane, end.Add(n.params.Latency+extra), &ev.tm)
	return nil
}

// frameRecord takes a frame record off the freelist, or makes one.
func (n *Network) frameRecord() *frameEvent {
	ev := n.freeEv
	if ev != nil {
		n.freeEv = ev.next
		ev.next = nil
		return ev
	}
	ev = new(frameEvent)
	ev.tm.Bind(n.deliverEv, ev)
	n.records++
	return ev
}

// deliverEvent is the scheduler callback for hub-mode deliveries. The
// event, and with it the payload the handlers are reading, returns to
// the freelist only after delivery: a handler that sends from inside
// the callback (every echo reply does) draws a different event.
func (n *Network) deliverEvent(arg any) {
	ev := arg.(*frameEvent)
	n.deliver(Frame{Src: int(ev.src), Dst: int(ev.dst), Rail: int(ev.rail), Payload: ev.p.bytes()})
	ev.next = n.freeEv
	n.freeEv = ev
}

// sendSwitched models a store-and-forward switch: the frame serializes
// on the sender's ingress port, crosses the fabric, then serializes
// again on each receiver's egress port — so disjoint flows proceed in
// parallel and only same-port traffic contends.
func (n *Network) sendSwitched(seg *segment, fr Frame, txTime time.Duration, bits float64, extra time.Duration) {
	ingDone := occupy(&seg.ingressBusy[fr.Src], n.sched.Now(), txTime)
	seg.stats.BitsSent += bits

	half := n.params.Latency / 2
	deliverVia := func(node int) {
		egDone := occupy(&seg.egressBusy[node], ingDone.Add(half+extra), txTime)
		n.sched.At(egDone.Add(half), func() {
			if !n.segUp(fr.Rail) {
				seg.stats.DroppedSegment++
				return
			}
			n.deliverTo(seg, fr, node)
		})
	}
	if fr.Dst == Broadcast {
		for node := 0; node < n.cluster.Nodes; node++ {
			if node != fr.Src {
				deliverVia(node)
			}
		}
		return
	}
	deliverVia(fr.Dst)
}

func (n *Network) deliver(fr Frame) {
	seg := &n.segs[fr.Rail]
	if !n.segUp(fr.Rail) {
		seg.stats.DroppedSegment++
		return
	}
	if fr.Dst == Broadcast {
		for node := 0; node < n.cluster.Nodes; node++ {
			if node == fr.Src {
				continue
			}
			n.deliverTo(seg, fr, node)
		}
		return
	}
	n.deliverTo(seg, fr, fr.Dst)
}

func (n *Network) deliverTo(seg *segment, fr Frame, node int) {
	// Receive-side impairment of the receiver's NIC: drawn here, at
	// arrival on the segment, so broadcast receivers are impaired
	// independently.
	drop, extra, corrupt := n.impairRx(n.nic(node, fr.Rail))
	if drop {
		seg.stats.DroppedImpaired++
		return
	}
	if extra > 0 {
		// On a hub the delayed frame outlives the recycled event that
		// owns its payload, so it takes its own copy; a switched
		// frame's copy is already private.
		if !n.params.Switched {
			fr.Payload = append([]byte(nil), fr.Payload...)
		}
		n.sched.After(extra, func() { n.completeDelivery(seg, fr, node, corrupt) })
		return
	}
	n.completeDelivery(seg, fr, node, corrupt)
}

// completeDelivery is the final hop into the receiver: the NIC state
// and random-loss checks happen here, at actual delivery time, so a
// NIC that died while an impairment delayed the frame still eats it.
// Drop causes are tested process first, then NIC — FabricNet tests
// them the other way round, and the per-cause counters fold into
// pinned digests, so neither order may change.
func (n *Network) completeDelivery(seg *segment, fr Frame, node int, corrupt bool) {
	if !n.nodeUp[node] {
		seg.stats.DroppedNodeDown++
		return
	}
	if !n.rxUp[n.nic(node, fr.Rail)] {
		seg.stats.DroppedRxNIC++
		return
	}
	if n.partitioned(fr.Src, node, fr.Rail) {
		seg.stats.DroppedPartitioned++
		return
	}
	if n.params.LossRate > 0 && n.rnd.Float64() < n.params.LossRate {
		seg.stats.DroppedLoss++
		return
	}
	h := n.handler[node]
	if h == nil {
		return
	}
	seg.stats.FramesDelivered++
	// Each receiver of a broadcast reads its own copy. A unicast
	// frame's bytes already belong to this delivery alone, so
	// corruption mangles them in place.
	payload := fr.Payload
	if fr.Dst == Broadcast {
		n.rx[node] = append(n.rx[node][:0], fr.Payload...)
		payload = n.rx[node]
	}
	if corrupt {
		n.mangle(payload)
		seg.stats.Corrupted++
	}
	out := Frame{Src: fr.Src, Dst: node, Rail: fr.Rail, Payload: payload}
	if n.tap != nil {
		n.tap.FrameDelivered(n.sched.Now().Duration(), out)
	}
	h(out)
}

// CarrierUp reports whether src's logical link to peer on rail has
// carrier right now: src's transmit half, the segment and peer's
// receive half are all electrically alive. This is the physical-layer
// failure detection static fast-failover switching relies on (loss of
// signal, link-layer keepalive) — and deliberately NOT a routing
// control plane: it reflects component state only, so a fail-stopped
// daemon behind healthy NICs (NodeUp false) still shows carrier,
// exactly like a crashed router whose link lights stay on.
func (n *Network) CarrierUp(src, peer, rail int) bool {
	n.checkNode(src)
	n.checkNode(peer)
	n.checkRail(rail)
	return n.txUp[n.nic(src, rail)] && n.segUp(rail) && n.rxUp[n.nic(peer, rail)]
}

// Reachable reports ground-truth connectivity from src to dst at this
// simulated instant: whether any chain of live forwarding hops exists,
// where a hop u→v needs u's transmit NIC, the segment and v's receive
// NIC alive on some rail with no partition blocking the directed
// (u, v, rail) path, and every node on the chain (including src and
// dst) must have its daemon process running. This is the oracle
// invariant checkers use to tell a legitimate "provably disconnected"
// packet loss from a routing failure.
func (n *Network) Reachable(src, dst int) bool {
	n.checkNode(src)
	n.checkNode(dst)
	if !n.nodeUp[src] || !n.nodeUp[dst] {
		return false
	}
	if src == dst {
		return true
	}
	// BFS over live nodes; the frontier is tiny (clusters are small and
	// dense), so the quadratic scan is fine.
	visited := make([]bool, n.cluster.Nodes)
	visited[src] = true
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for v := 0; v < n.cluster.Nodes; v++ {
			if visited[v] || !n.nodeUp[v] {
				continue
			}
			for r := 0; r < n.cluster.Rails; r++ {
				if n.txUp[n.nic(u, r)] && n.segUp(r) && n.rxUp[n.nic(v, r)] && !n.partitioned(u, v, r) {
					if v == dst {
						return true
					}
					visited[v] = true
					queue = append(queue, v)
					break
				}
			}
		}
	}
	return false
}

// Stats returns a copy of the traffic counters for rail.
func (n *Network) Stats(rail int) SegmentStats {
	n.checkRail(rail)
	return n.segs[rail].stats
}

// Utilization returns the fraction of rail capacity consumed so far,
// over the elapsed simulated time (0 if no time has passed). On a hub
// the capacity is one shared medium; on a switch it is one full-rate
// port per node.
func (n *Network) Utilization(rail int) float64 {
	elapsed := n.sched.Now().Duration().Seconds()
	if elapsed <= 0 {
		return 0
	}
	capacity := n.params.Rate * elapsed
	if n.params.Switched {
		capacity *= float64(n.cluster.Nodes)
	}
	return n.Stats(rail).BitsSent / capacity
}
