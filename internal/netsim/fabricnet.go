package netsim

import (
	"fmt"

	"drsnet/internal/simtime"
	"drsnet/internal/topology"
)

// FabricNet is the switched-fabric generalization of Network: frames
// cross an arbitrary graph of hosts, switches and trunks with
// store-and-forward serialization on every link they traverse.
//
// Forwarding model: switches run converged shortest-path routing over
// the healthy portion of the fabric — next-hop tables are recomputed
// (lazily, deterministically) whenever a component fails or recovers,
// the way a link-state fabric converges. Frames already in flight
// still hit dead components and are dropped, exactly like Network.
// Hosts do NOT relay inside the fabric: multi-host relaying is the
// routing protocol's job (BCube-style server-centric paths emerge from
// DRS relay routes, not from the wire). A frame whose destination has
// no switch-level path is dropped and counted.
//
// Timing: a frame serializes (at Params.Rate) on each link it
// crosses — the sender's NIC link, every trunk, the receiver's NIC
// link — and pays Params.Latency propagation per link. Each link
// direction has its own busy clock, so disjoint paths never contend,
// and its own scheduler lane: arrivals off one link come out of the
// busy clock in order, so the event queue holds one entry per busy
// link rather than one per frame in flight.
//
// Failure semantics mirror Network: NICs fail per-direction (gray
// failures), switches and trunks fail whole, FailNode blackholes a
// host's traffic without touching electrical state, and impairments
// (loss/corrupt/delay/jitter) attach to any component, applied at
// each crossing. Randomness is drawn only when an impairment or loss
// process is configured, so healthy runs are byte-identical across
// refactors.
type FabricNet struct {
	state
	fab *topology.Fabric

	// Link directions, indexed by NIC or trunk.
	nicUp   []link // host → switch
	nicDown []link // switch → host
	trkAB   []link
	trkBA   []link

	stats SegmentStats

	// Routing tables: per destination host, the next trunk from every
	// switch toward the destination's nearest live attachment switch.
	// A table is stale when its epoch differs from state.epoch, which
	// every component state change bumps.
	routes []*fabricRoute

	// Pooled in-flight frame records and the hop callback each one's
	// timer is bound to.
	freeHop *hopEvent
	hopFn   func(any)

	// bfs is routeFor's queue, one slot per switch.
	bfs []int32

	// Switch → attached-NIC index for Reachable (see attachIndex).
	attOff, attNIC []int32
}

// link is one direction of a fabric link: its busy clock and the
// scheduler lane its arrivals queue on.
type link struct {
	busy simtime.Time
	lane simtime.Lane
}

// fabricRoute is one destination host's converged routing state.
type fabricRoute struct {
	epoch uint64
	// trunk[s] is the trunk to take from switch s toward the
	// destination (-1 at attachment switches and unreachable ones).
	trunk []int32
	// downNIC[s] is the dense NIC id to deliver through when s is a
	// live attachment switch of the destination (-1 otherwise).
	downNIC []int32
	// dist[s] is the hop distance to the destination (-1 unreachable).
	dist []int32
}

// hopEvent is one in-flight frame, from its first hop to its delivery
// or drop: each hop reschedules the same record, and its timer, on the
// next link's lane. It is 128 bytes, payload included for every frame
// that fits inline.
type hopEvent struct {
	tm       simtime.Timer // bound to hop(ev) when the record is made
	p        payload       // the frame's own copy of its bytes
	next     *hopEvent     // freelist link
	src, dst int32         // dst is the final host
	// port is the switch the frame is arriving at in stage 0, and the
	// NIC link being crossed in stages 1 and 2.
	port    int32
	stage   int8 // 0 = at switch, 1 = at host, 2 = post-impairment-delay
	corrupt bool // a crossing drew a corruption; mangle at delivery
}

// NewFabricNet builds a healthy fabric network on the scheduler.
// Params.Switched is ignored — a fabric is switched by construction.
func NewFabricNet(sched *simtime.Scheduler, fab *topology.Fabric, params Params, seed uint64) (*FabricNet, error) {
	if fab == nil {
		return nil, fmt.Errorf("netsim: nil fabric")
	}
	if err := fab.Validate(); err != nil {
		return nil, err
	}
	st, err := newState(sched, params, fab.Hosts(), fab.Ports(), fab.Components(), seed)
	if err != nil {
		return nil, err
	}
	nics := fab.Hosts() * fab.Ports()
	n := &FabricNet{
		state:   st,
		fab:     fab,
		nicUp:   make([]link, nics),
		nicDown: make([]link, nics),
		trkAB:   make([]link, fab.Trunks()),
		trkBA:   make([]link, fab.Trunks()),
		routes:  make([]*fabricRoute, fab.Hosts()),
		bfs:     make([]int32, 0, fab.Switches()),
	}
	n.hopFn = n.hop
	return n, nil
}

// Fabric returns the fabric shape.
func (n *FabricNet) Fabric() *topology.Fabric { return n.fab }

// swComp and trkComp are the component ids of switch s and trunk t,
// without the range checks of Fabric.Switch and Fabric.TrunkComp: the
// indices come from the fabric's own tables.
func (n *FabricNet) swComp(s int) topology.Component {
	return topology.Component(n.nodes*n.ports + s)
}

func (n *FabricNet) trkComp(t int) topology.Component {
	return topology.Component(n.nodes*n.ports + n.fab.Switches() + t)
}

func (n *FabricNet) swUp(s int) bool  { return n.txUp[n.swComp(s)] }
func (n *FabricNet) trkUp(t int) bool { return n.txUp[n.trkComp(t)] }

// routeFor returns dst's converged routing table, rebuilding it if
// component state changed since it was computed. The rebuild is a
// multi-source BFS from dst's live attachment switches over healthy
// switches and trunks, with deterministic ascending-id tie-breaks.
func (n *FabricNet) routeFor(dst int) *fabricRoute {
	rt := n.routes[dst]
	if rt != nil && rt.epoch == n.epoch {
		return rt
	}
	S := n.fab.Switches()
	if rt == nil {
		rt = &fabricRoute{
			trunk:   make([]int32, S),
			downNIC: make([]int32, S),
			dist:    make([]int32, S),
		}
		n.routes[dst] = rt
	}
	rt.epoch = n.epoch
	for s := 0; s < S; s++ {
		rt.trunk[s], rt.downNIC[s], rt.dist[s] = -1, -1, -1
	}
	// Seed with dst's live attachment switches, lowest port first so
	// a switch serving the host through two ports uses the lowest.
	// Every switch joins the queue at most once, so it never outgrows
	// its scratch.
	queue := n.bfs[:0]
	for p := 0; p < n.ports; p++ {
		nic := dst*n.ports + p
		s := n.fab.HostSwitch(dst, p)
		if !n.rxUp[nic] || !n.swUp(s) {
			continue
		}
		if rt.dist[s] < 0 {
			rt.dist[s] = 0
			rt.downNIC[s] = int32(nic)
			queue = append(queue, int32(s))
		}
	}
	for head := 0; head < len(queue); head++ {
		u := int(queue[head])
		n.fab.SwitchNeighbors(u, func(v, t int) {
			if rt.dist[v] >= 0 || !n.trkUp(t) || !n.swUp(v) {
				return
			}
			rt.dist[v] = rt.dist[u] + 1
			rt.trunk[v] = int32(t) // trunk from v toward u (toward dst)
			queue = append(queue, int32(v))
		})
	}
	return rt
}

// Send transmits payload from src's port rail toward dst (or
// Broadcast). Semantics mirror Network.Send: the call never blocks
// and drops are silent but counted.
func (n *FabricNet) Send(src, rail, dst int, payload []byte) error {
	if err := n.checkSend(src, rail, dst); err != nil {
		return err
	}
	n.stats.FramesSent++
	if n.tap != nil {
		n.tap.FrameSent(n.sched.Now().Duration(), Frame{Src: src, Dst: dst, Rail: rail, Payload: payload})
	}
	if !n.nodeUp[src] {
		n.stats.DroppedNodeDown++
		return nil
	}
	nic := src*n.ports + rail
	if !n.txUp[nic] {
		n.stats.DroppedTxNIC++
		return nil
	}
	entry := n.fab.HostSwitch(src, rail)
	if !n.swUp(entry) {
		n.stats.DroppedSegment++
		return nil
	}
	drop, extra, corrupt := n.impair2(topology.Component(nic), n.swComp(entry))
	if drop {
		n.stats.DroppedImpaired++
		return nil
	}

	txTime, bits := n.wireTime(len(payload))
	if corrupt {
		// One transmit-side draw mangles the frame once; every sibling
		// copies the mangled bytes.
		payload = append([]byte(nil), payload...)
		n.mangle(payload)
		n.stats.Corrupted++
	}

	// Serialize once on the sender's NIC link, then fan out.
	up := &n.nicUp[nic]
	end := occupy(&up.busy, n.sched.Now(), txTime)
	n.stats.BitsSent += bits
	arrive := end.Add(n.params.Latency + extra)
	if dst != Broadcast {
		n.firstHop(arrive, up, payload, src, dst, entry)
	} else {
		// Replicate toward every other host, ascending, sharing the
		// single ingress serialization — an L2 flood.
		for h := 0; h < n.nodes; h++ {
			if h != src {
				n.firstHop(arrive, up, payload, src, h, entry)
			}
		}
	}
	return nil
}

// firstHop schedules a frame's arrival at its entry switch on the
// sender's uplink lane, in a record holding its own copy of payload —
// the sender may reuse its buffer once Send returns.
func (n *FabricNet) firstHop(at simtime.Time, up *link, payload []byte, src, dst, entry int) {
	ev := n.freeHop
	if ev != nil {
		n.freeHop = ev.next
	} else {
		ev = new(hopEvent)
		ev.tm.Bind(n.hopFn, ev)
	}
	ev.p.set(payload)
	ev.src, ev.dst, ev.port, ev.stage, ev.corrupt = int32(src), int32(dst), int32(entry), 0, false
	n.sched.LaneTimer(&up.lane, at, &ev.tm)
}

// hop is the scheduler callback for every fabric traversal event. A
// stage that forwards the frame reschedules ev; otherwise the frame is
// delivered or dropped, and the record returns to the freelist here —
// after the receiver's handler is done reading its payload.
func (n *FabricNet) hop(arg any) {
	ev := arg.(*hopEvent)
	var fwd bool
	switch ev.stage {
	case 0:
		fwd = n.switchArrive(ev)
	case 1:
		fwd = n.hostArrive(ev)
	default:
		if n.rxAlive(ev) {
			n.finishDelivery(ev)
		}
	}
	if !fwd {
		ev.next = n.freeHop
		n.freeHop = ev
	}
}

// switchArrive handles a frame reaching switch ev.port: cross the host
// link down to the destination if it is attached here, otherwise the
// next trunk of the converged route. It reports whether the frame was
// forwarded.
func (n *FabricNet) switchArrive(ev *hopEvent) bool {
	sw := int(ev.port)
	if !n.swUp(sw) {
		n.stats.DroppedSegment++
		return false
	}
	rt := n.routeFor(int(ev.dst))
	var comp topology.Component // the link to cross
	var out *link               // and its direction
	switch {
	case rt.downNIC[sw] >= 0:
		// Attachment switch: serialize down the host link.
		ev.port, ev.stage = rt.downNIC[sw], 1
		comp, out = topology.Component(ev.port), &n.nicDown[ev.port]
	case rt.trunk[sw] >= 0:
		t := int(rt.trunk[sw])
		tr := n.fab.Trunk(t)
		peer := tr.A
		out = &n.trkBA[t]
		if sw == tr.A {
			peer = tr.B
			out = &n.trkAB[t]
		}
		// A dead trunk or peer here means the route table converged
		// before this in-flight frame arrived.
		if !n.trkUp(t) || !n.swUp(peer) {
			n.stats.DroppedSegment++
			return false
		}
		ev.port = int32(peer)
		comp = n.trkComp(t)
	default:
		// No live path to the destination.
		n.stats.DroppedSegment++
		return false
	}
	drop, extra, corrupt := n.impair(comp)
	if drop {
		n.stats.DroppedImpaired++
		return false
	}
	txTime, bits := n.wireTime(len(ev.p.bytes()))
	end := occupy(&out.busy, n.sched.Now(), txTime)
	n.stats.BitsSent += bits
	ev.corrupt = ev.corrupt || corrupt
	n.sched.LaneTimer(&out.lane, end.Add(n.params.Latency+extra), &ev.tm)
	return true
}

// hostArrive is the final hop into the receiver, mirroring Network's
// deliverTo: the receive-side NIC impairment is drawn here, and a
// delayed frame re-checks component state when the delay elapses. It
// reports whether delivery was deferred.
func (n *FabricNet) hostArrive(ev *hopEvent) bool {
	if !n.rxAlive(ev) {
		return false
	}
	drop, extra, corrupt := n.impairRx(topology.Component(ev.port))
	if drop {
		n.stats.DroppedImpaired++
		return false
	}
	ev.corrupt = ev.corrupt || corrupt
	if extra > 0 {
		// Stage 2 skips the impairment draw — the delay has already
		// been applied — but re-checks NIC and process state at the
		// deferred instant, like completeDelivery. It crosses no link,
		// so it has no lane.
		ev.stage = 2
		n.sched.LaneTimer(nil, n.sched.Now().Add(extra), &ev.tm)
		return true
	}
	n.finishDelivery(ev)
	return false
}

// rxAlive counts and reports the drop when the receiving NIC or the
// process behind it is down. Drop causes are tested NIC first, then
// process — Network tests them the other way round, and the per-cause
// counters fold into pinned digests, so neither order may change.
func (n *FabricNet) rxAlive(ev *hopEvent) bool {
	if !n.rxUp[ev.port] {
		n.stats.DroppedRxNIC++
		return false
	}
	if !n.nodeUp[ev.dst] {
		n.stats.DroppedNodeDown++
		return false
	}
	return true
}

func (n *FabricNet) finishDelivery(ev *hopEvent) {
	if n.params.LossRate > 0 && n.rnd.Float64() < n.params.LossRate {
		n.stats.DroppedLoss++
		return
	}
	h := n.handler[ev.dst]
	if h == nil {
		return
	}
	n.stats.FramesDelivered++
	// The record owns its payload, so corruption mangles it in place.
	b := ev.p.bytes()
	if ev.corrupt {
		n.mangle(b)
		n.stats.Corrupted++
	}
	// The delivery rail is the port the frame finally came in through.
	rail := int(ev.port) % n.ports
	out := Frame{Src: int(ev.src), Dst: int(ev.dst), Rail: rail, Payload: b}
	if n.tap != nil {
		n.tap.FrameDelivered(n.sched.Now().Duration(), out)
	}
	h(out)
}

// CarrierUp reports whether src's port rail currently has a converged
// fabric path to peer: the local transmit half, the fabric route and
// peer's delivery link are all alive. On a fabric this is the
// link-state view a converged switching layer exposes to its hosts,
// the closest analogue of the dual-rail carrier oracle.
func (n *FabricNet) CarrierUp(src, peer, rail int) bool {
	n.checkNode(src)
	n.checkNode(peer)
	n.checkRail(rail)
	if !n.txUp[n.nic(src, rail)] {
		return false
	}
	entry := n.fab.HostSwitch(src, rail)
	if !n.swUp(entry) {
		return false
	}
	rt := n.routeFor(peer)
	return rt.dist[entry] >= 0
}

// Reachable reports ground-truth connectivity from src to dst,
// including protocol-level relaying through intermediate hosts whose
// daemons are running — the oracle invariant checkers use. A hop into
// a host needs its receive NIC; a hop out needs a transmit NIC; every
// intermediate host needs its process up.
func (n *FabricNet) Reachable(src, dst int) bool {
	n.checkNode(src)
	n.checkNode(dst)
	if !n.nodeUp[src] || !n.nodeUp[dst] {
		return false
	}
	if src == dst {
		return true
	}
	hosts, ports := n.nodes, n.ports
	attOff, attNIC := n.attachIndex()
	verts := hosts + n.fab.Switches()
	visited := make([]bool, verts)
	visited[src] = true
	queue := make([]int, 0, verts)
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		if u < hosts {
			// Host → its switches, via live transmit NICs. Intermediate
			// hosts relay only when their process is up (src always is).
			if u != src && !n.nodeUp[u] {
				continue
			}
			for p := 0; p < ports; p++ {
				nic := u*ports + p
				s := hosts + n.fab.HostSwitch(u, p)
				if !n.txUp[nic] || !n.swUp(s-hosts) || visited[s] {
					continue
				}
				visited[s] = true
				queue = append(queue, s)
			}
			continue
		}
		// Switch → neighbour switches over live trunks, and down to
		// attached hosts via live receive NICs.
		sw := u - hosts
		n.fab.SwitchNeighbors(sw, func(v, t int) {
			if visited[hosts+v] || !n.trkUp(t) || !n.swUp(v) {
				return
			}
			visited[hosts+v] = true
			queue = append(queue, hosts+v)
		})
		for _, nic := range attNIC[attOff[sw]:attOff[sw+1]] {
			h := int(nic) / ports
			if visited[h] || !n.rxUp[nic] {
				continue
			}
			if h == dst {
				return true
			}
			visited[h] = true
			queue = append(queue, h)
		}
	}
	return false
}

// attachIndex returns the switch → attached-NIC index in CSR form:
// switch s's NICs are nics[off[s]:off[s+1]], in ascending NIC order.
// It is built on first use, so only runs that ask for Reachable pay
// for it.
func (n *FabricNet) attachIndex() (off, nics []int32) {
	if n.attOff == nil {
		S, total := n.fab.Switches(), n.nodes*n.ports
		off = make([]int32, S+1)
		for nic := 0; nic < total; nic++ {
			off[n.fab.HostSwitch(nic/n.ports, nic%n.ports)+1]++
		}
		for s := 0; s < S; s++ {
			off[s+1] += off[s]
		}
		nics = make([]int32, total)
		fill := make([]int32, S)
		for nic := 0; nic < total; nic++ {
			s := n.fab.HostSwitch(nic/n.ports, nic%n.ports)
			nics[off[s]+fill[s]] = int32(nic)
			fill[s]++
		}
		n.attOff, n.attNIC = off, nics
	}
	return n.attOff, n.attNIC
}

// Stats returns a copy of the aggregate traffic counters. A fabric
// has one counter set; any in-range rail index returns it.
func (n *FabricNet) Stats(rail int) SegmentStats {
	n.checkRail(rail)
	return n.stats
}

// Utilization returns the fraction of total fabric link capacity
// consumed so far (all links aggregated; same value for any rail).
func (n *FabricNet) Utilization(rail int) float64 {
	n.checkRail(rail)
	elapsed := n.sched.Now().Duration().Seconds()
	if elapsed <= 0 {
		return 0
	}
	links := float64(n.nodes*n.ports + n.fab.Trunks())
	return n.stats.BitsSent / (n.params.Rate * links * elapsed)
}
