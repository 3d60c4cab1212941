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

	"drsnet/internal/rng"
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
	up        bool
	busyUntil simtime.Time
	// Per-node port clocks, used only in switched mode.
	ingressBusy []simtime.Time
	egressBusy  []simtime.Time
	stats       SegmentStats
}

// Network is one simulated cluster network.
type Network struct {
	sched   *simtime.Scheduler
	cluster topology.Cluster
	params  Params
	segs    []segment
	// Per-NIC duplex state: a NIC is operational only when both halves
	// are; a unidirectional (gray) failure kills one half.
	nicTx [][]bool
	nicRx [][]bool
	// Per-node process state: false while the node's daemon is
	// fail-stopped (crash lifecycle). Unlike NIC failures this
	// blackholes every frame the node sends or would receive without
	// touching the electrical component state.
	nodeUp  []bool
	handler []Handler
	rnd     *rng.Source
	// Gray-failure state: active impairments by component, nil until
	// the first SetImpairment so the healthy fast path stays free.
	// impRnd is a substream split off the loss source at construction
	// (splitting does not perturb the parent), so enabling impairments
	// never changes the Params.LossRate draw sequence.
	imp    map[topology.Component]Impairment
	impRnd *rng.Source
	// tap, when non-nil, observes every frame (see Tap).
	tap Tap
	// part holds the installed network partitions (nil until the first
	// Partition, so partition-free runs pay nothing): directed
	// (src, dst, rail) paths whose frames vanish at delivery.
	part map[partKey]struct{}
	// Delivery-event recycling: hub-mode deliveries are never
	// cancelled, so their event records — and the payload copy each
	// one owns — cycle through a freelist and the pre-bound deliverEv
	// method value instead of allocating a fresh closure, timer and
	// buffer per frame.
	freeEv    *frameEvent
	deliverEv func(any)
	// fabric is the Fabric view of the cluster, built once on demand.
	fabric *topology.Fabric
}

// frameEvent carries one in-flight hub-mode frame through the
// scheduler without a per-send closure. buf is the event's own copy of
// the payload (fr.Payload aliases it), kept across recycling.
type frameEvent struct {
	fr   Frame
	buf  []byte
	next *frameEvent
}

// New builds a healthy network for the given cluster shape on the
// given scheduler. seed feeds the (optional) random-loss process.
func New(sched *simtime.Scheduler, cluster topology.Cluster, params Params, seed uint64) (*Network, error) {
	if sched == nil {
		return nil, fmt.Errorf("netsim: nil scheduler")
	}
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	if err := params.validate(); err != nil {
		return nil, err
	}
	n := &Network{
		sched:   sched,
		cluster: cluster,
		params:  params,
		segs:    make([]segment, cluster.Rails),
		nicTx:   make([][]bool, cluster.Nodes),
		nicRx:   make([][]bool, cluster.Nodes),
		nodeUp:  make([]bool, cluster.Nodes),
		handler: make([]Handler, cluster.Nodes),
		rnd:     rng.New(seed),
	}
	n.impRnd = n.rnd.Split(0xc4a05)
	n.deliverEv = n.deliverEvent
	for r := range n.segs {
		n.segs[r].up = true
		if params.Switched {
			n.segs[r].ingressBusy = make([]simtime.Time, cluster.Nodes)
			n.segs[r].egressBusy = make([]simtime.Time, cluster.Nodes)
		}
	}
	for i := range n.nicTx {
		n.nicTx[i] = make([]bool, cluster.Rails)
		n.nicRx[i] = make([]bool, cluster.Rails)
		n.nodeUp[i] = true
		for r := range n.nicTx[i] {
			n.nicTx[i][r] = true
			n.nicRx[i][r] = true
		}
	}
	return n, nil
}

// Cluster returns the cluster shape.
func (n *Network) Cluster() topology.Cluster { return n.cluster }

// Nodes returns the number of nodes.
func (n *Network) Nodes() int { return n.cluster.Nodes }

// Rails returns the number of rails (NIC ports per node).
func (n *Network) Rails() int { return n.cluster.Rails }

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

// Scheduler returns the driving scheduler (for protocol timers).
func (n *Network) Scheduler() *simtime.Scheduler { return n.sched }

// SetHandler installs the frame handler for node.
func (n *Network) SetHandler(node int, h Handler) {
	n.checkNode(node)
	n.handler[node] = h
}

// SetTap installs (or, with nil, removes) the network's frame
// observer. At most one tap is active; the healthy fast path pays
// nothing when none is installed.
func (n *Network) SetTap(t Tap) { n.tap = t }

// Send transmits payload from src to dst on rail. dst may be
// Broadcast. The call never blocks and never reports delivery
// failures: like real hardware, a frame sent into a broken NIC or
// dead segment silently vanishes (the drop is counted in
// SegmentStats). An error is returned only for malformed requests.
func (n *Network) Send(src, rail, dst int, payload []byte) error {
	n.checkNode(src)
	if rail < 0 || rail >= n.cluster.Rails {
		return fmt.Errorf("netsim: rail %d out of range", rail)
	}
	if dst != Broadcast {
		n.checkNode(dst)
		if dst == src {
			return fmt.Errorf("netsim: node %d sending to itself", src)
		}
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
	if !n.nicTx[src][rail] {
		seg.stats.DroppedTxNIC++
		return nil
	}
	if !seg.up {
		seg.stats.DroppedSegment++
		return nil
	}
	drop, extra, corrupt := n.impairTx(src, rail)
	if drop {
		seg.stats.DroppedImpaired++
		return nil
	}

	wire := len(payload) + n.params.OverheadBytes
	if wire < n.params.MinFrameBytes {
		wire = n.params.MinFrameBytes
	}
	txTime := time.Duration(float64(wire*8) / n.params.Rate * float64(time.Second))

	if n.params.Switched {
		// Copy the payload: the sender may reuse its buffer.
		data := append([]byte(nil), payload...)
		if corrupt {
			n.mangle(data)
			seg.stats.Corrupted++
		}
		fr := Frame{Src: src, Dst: dst, Rail: rail, Payload: data}
		n.sendSwitched(seg, fr, txTime, float64(wire*8), extra)
		return nil
	}

	// Shared medium (hub): one frame at a time on the whole segment.
	start := n.sched.Now()
	if seg.busyUntil > start {
		start = seg.busyUntil
	}
	end := start.Add(txTime)
	seg.busyUntil = end
	seg.stats.BitsSent += float64(wire * 8)
	ev := n.freeEv
	if ev != nil {
		n.freeEv = ev.next
		ev.next = nil
	} else {
		ev = new(frameEvent)
	}
	// The sender may reuse its buffer: the event keeps its own copy.
	ev.buf = append(ev.buf[:0], payload...)
	if corrupt {
		n.mangle(ev.buf)
		seg.stats.Corrupted++
	}
	ev.fr = Frame{Src: src, Dst: dst, Rail: rail, Payload: ev.buf}
	n.sched.AtCall(end.Add(n.params.Latency+extra), n.deliverEv, ev)
	return nil
}

// deliverEvent is the scheduler callback for hub-mode deliveries. The
// event, and with it the payload the handlers are reading, returns to
// the freelist only after delivery: a handler that sends from inside
// the callback (every echo reply does) draws a different event.
func (n *Network) deliverEvent(arg any) {
	ev := arg.(*frameEvent)
	n.deliver(ev.fr)
	ev.next = n.freeEv
	n.freeEv = ev
}

// impairTx applies the transmit-side impairments for a frame leaving
// src on rail: the sender's NIC impairment and the segment's, in that
// order. It returns whether the frame is eaten, the extra delay it
// accrues, and whether its payload is corrupted. With no impairments
// installed it draws no randomness at all, keeping unimpaired runs
// byte-identical.
func (n *Network) impairTx(src, rail int) (drop bool, extra time.Duration, corrupt bool) {
	if n.imp == nil {
		return false, 0, false
	}
	comps := [2]topology.Component{n.cluster.NIC(src, rail), n.cluster.Backplane(rail)}
	for _, c := range comps {
		imp, ok := n.imp[c]
		if !ok {
			continue
		}
		if imp.Loss > 0 && n.impRnd.Float64() < imp.Loss {
			return true, 0, false
		}
		extra += imp.Delay
		if imp.Jitter > 0 {
			extra += time.Duration(n.impRnd.Uint64n(uint64(imp.Jitter)))
		}
		if imp.Corrupt > 0 && n.impRnd.Float64() < imp.Corrupt {
			corrupt = true
		}
	}
	return false, extra, corrupt
}

// mangle flips one byte of data in place (no-op for empty payloads) —
// the corruption model: a burst error the FCS failed to catch.
func (n *Network) mangle(data []byte) {
	if len(data) == 0 {
		return
	}
	i := n.impRnd.Intn(len(data))
	data[i] ^= byte(1 + n.impRnd.Intn(255))
}

// sendSwitched models a store-and-forward switch: the frame serializes
// on the sender's ingress port, crosses the fabric, then serializes
// again on each receiver's egress port — so disjoint flows proceed in
// parallel and only same-port traffic contends.
func (n *Network) sendSwitched(seg *segment, fr Frame, txTime time.Duration, bits float64, extra time.Duration) {
	ingStart := n.sched.Now()
	if seg.ingressBusy[fr.Src] > ingStart {
		ingStart = seg.ingressBusy[fr.Src]
	}
	ingDone := ingStart.Add(txTime)
	seg.ingressBusy[fr.Src] = ingDone
	seg.stats.BitsSent += bits

	half := n.params.Latency / 2
	deliverVia := func(node int) {
		arrival := ingDone.Add(half + extra)
		egStart := arrival
		if seg.egressBusy[node] > egStart {
			egStart = seg.egressBusy[node]
		}
		egDone := egStart.Add(txTime)
		seg.egressBusy[node] = egDone
		n.sched.At(egDone.Add(half), func() {
			if !seg.up {
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
	if !seg.up {
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
	corrupt := false
	if n.imp != nil {
		if imp, ok := n.imp[n.cluster.NIC(node, fr.Rail)]; ok {
			if imp.Loss > 0 && n.impRnd.Float64() < imp.Loss {
				seg.stats.DroppedImpaired++
				return
			}
			if imp.Corrupt > 0 && n.impRnd.Float64() < imp.Corrupt {
				corrupt = true
			}
			extra := imp.Delay
			if imp.Jitter > 0 {
				extra += time.Duration(n.impRnd.Uint64n(uint64(imp.Jitter)))
			}
			if extra > 0 {
				// On a hub the delayed frame outlives the recycled
				// event that owns its payload, so it takes its own
				// copy; a switched frame's copy is already private.
				if !n.params.Switched {
					fr.Payload = append([]byte(nil), fr.Payload...)
				}
				n.sched.After(extra, func() { n.completeDelivery(seg, fr, node, corrupt) })
				return
			}
		}
	}
	n.completeDelivery(seg, fr, node, corrupt)
}

// completeDelivery is the final hop into the receiver: the NIC state
// and random-loss checks happen here, at actual delivery time, so a
// NIC that died while an impairment delayed the frame still eats it.
func (n *Network) completeDelivery(seg *segment, fr Frame, node int, corrupt bool) {
	if !n.nodeUp[node] {
		seg.stats.DroppedNodeDown++
		return
	}
	if !n.nicRx[node][fr.Rail] {
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
	// Each receiver of a broadcast gets its own copy; corruption also
	// forces a private copy so the wire image stays intact for others.
	payload := fr.Payload
	if fr.Dst == Broadcast || corrupt {
		payload = append([]byte(nil), fr.Payload...)
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

// Fail takes a component (NIC or back plane) down. Failing an already
// failed component is a no-op. Frames in flight on a failed segment
// are lost; frames in flight to a failed NIC are lost at delivery.
func (n *Network) Fail(c topology.Component) { n.FailDir(c, DirBoth) }

// Restore brings a failed component back (both directions of a NIC).
func (n *Network) Restore(c topology.Component) { n.RestoreDir(c, DirBoth) }

// FailDir takes one direction of a NIC down — the gray failure a
// fail-stop model cannot express: a TX-dead NIC silently eats
// everything its node sends on that rail while replies still arrive,
// and vice versa. For back planes the direction is ignored (a shared
// segment has no duplex halves).
func (n *Network) FailDir(c topology.Component, dir Direction) {
	kind, node, rail := n.cluster.Describe(c)
	if kind == topology.KindBackplane {
		n.segs[rail].up = false
		return
	}
	if dir == DirBoth || dir == DirTx {
		n.nicTx[node][rail] = false
	}
	if dir == DirBoth || dir == DirRx {
		n.nicRx[node][rail] = false
	}
}

// RestoreDir brings one direction of a NIC back.
func (n *Network) RestoreDir(c topology.Component, dir Direction) {
	kind, node, rail := n.cluster.Describe(c)
	if kind == topology.KindBackplane {
		n.segs[rail].up = true
		return
	}
	if dir == DirBoth || dir == DirTx {
		n.nicTx[node][rail] = true
	}
	if dir == DirBoth || dir == DirRx {
		n.nicRx[node][rail] = true
	}
}

// FailNode fail-stops node's daemon process: every frame it sends or
// would receive blackholes from this instant until RestoreNode. The
// NICs stay electrically up — ComponentUp still reports healthy — so
// peers see unanswered probes, not a severed link, exactly like a
// crashed router whose hardware keeps link lights on.
func (n *Network) FailNode(node int) {
	n.checkNode(node)
	n.nodeUp[node] = false
}

// RestoreNode brings a fail-stopped node's process back.
func (n *Network) RestoreNode(node int) {
	n.checkNode(node)
	n.nodeUp[node] = true
}

// NodeUp reports whether node's daemon process is running.
func (n *Network) NodeUp(node int) bool {
	n.checkNode(node)
	return n.nodeUp[node]
}

// ComponentUp reports whether a component is fully operational (both
// directions, for a NIC).
func (n *Network) ComponentUp(c topology.Component) bool {
	kind, node, rail := n.cluster.Describe(c)
	if kind == topology.KindBackplane {
		return n.segs[rail].up
	}
	return n.nicTx[node][rail] && n.nicRx[node][rail]
}

// DirUp reports whether the given direction of a component works
// (for back planes any direction means the whole segment).
func (n *Network) DirUp(c topology.Component, dir Direction) bool {
	kind, node, rail := n.cluster.Describe(c)
	if kind == topology.KindBackplane {
		return n.segs[rail].up
	}
	switch dir {
	case DirTx:
		return n.nicTx[node][rail]
	case DirRx:
		return n.nicRx[node][rail]
	default:
		return n.nicTx[node][rail] && n.nicRx[node][rail]
	}
}

// SetImpairment installs (or replaces) the impairment on component c.
// A zero impairment is equivalent to ClearImpairment.
func (n *Network) SetImpairment(c topology.Component, imp Impairment) error {
	if err := imp.Validate(); err != nil {
		return err
	}
	n.cluster.Describe(c) // range check (panics exactly like Fail)
	if imp.IsZero() {
		n.ClearImpairment(c)
		return nil
	}
	if n.imp == nil {
		n.imp = make(map[topology.Component]Impairment)
	}
	n.imp[c] = imp
	return nil
}

// ClearImpairment removes any impairment on c.
func (n *Network) ClearImpairment(c topology.Component) {
	delete(n.imp, c)
	if len(n.imp) == 0 {
		n.imp = nil
	}
}

// ImpairmentOn returns the active impairment on c, if any.
func (n *Network) ImpairmentOn(c topology.Component) (Impairment, bool) {
	imp, ok := n.imp[c]
	return imp, ok
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
	if rail < 0 || rail >= n.cluster.Rails {
		panic(fmt.Sprintf("netsim: rail %d out of range", rail))
	}
	return n.nicTx[src][rail] && n.segs[rail].up && n.nicRx[peer][rail]
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
				if n.nicTx[u][r] && n.segs[r].up && n.nicRx[v][r] && !n.partitioned(u, v, r) {
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

// FailedComponents returns the currently failed components in
// ascending order — the ground-truth failure scenario for comparing
// simulated behaviour against the analytic model.
func (n *Network) FailedComponents() []topology.Component {
	var out []topology.Component
	for i := 0; i < n.cluster.Components(); i++ {
		c := topology.Component(i)
		if !n.ComponentUp(c) {
			out = append(out, c)
		}
	}
	return out
}

// Stats returns a copy of the traffic counters for rail.
func (n *Network) Stats(rail int) SegmentStats {
	if rail < 0 || rail >= n.cluster.Rails {
		panic(fmt.Sprintf("netsim: rail %d out of range", rail))
	}
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

func (n *Network) checkNode(node int) {
	if node < 0 || node >= n.cluster.Nodes {
		panic(fmt.Sprintf("netsim: node %d out of range [0,%d)", node, n.cluster.Nodes))
	}
}
