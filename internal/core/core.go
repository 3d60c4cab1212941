// Package core implements the Dynamic Routing System (DRS) — the
// paper's primary contribution: a proactive, daemon-based failover
// protocol for server clusters in which every node has one NIC per
// independent network rail (two, in the deployed system).
//
// Each node runs a Daemon that executes the paper's two-stage run
// process:
//
//	Phase 1 (link checks): every probe interval, each pair of daemons
//	shares one ICMP echo exchange on every rail. The lower id sends
//	the request; the higher id answers it, and probes the peer itself
//	only after a round in which it heard no request (a new path
//	starts as if one had been heard, so the first round shares too).
//	A returned echo proves "the hub, wiring, network interface card,
//	device driver, network protocol stack and host kernel are
//	operational" for that path. Consecutive misses (an unanswered
//	request, or a round in which the awaited request never came) mark
//	the link down.
//
//	Phase 2 (answer and fix): the daemon answers peers' echo requests
//	and route queries, and repairs its own routes as failures are
//	found: first by failing over to the second direct rail, and — if
//	no direct link remains — by broadcasting a route query so "some
//	other server is able to act as a router to create a new path
//	between the sender and the proposed recipient."
//
// Because monitoring is continuous, the failure is usually discovered
// and the replacement route installed within a TCP retransmission
// interval, so applications never see the outage — the property the
// drsim experiment measures against the reactive baseline.
//
// The Daemon itself is a thin composition of the repository's protocol
// layers: linkmon schedules the rounds and keeps per-(peer, rail)
// probe and RTT state, routetable holds routes, repairs and the relay
// discovery lifecycle, dataplane builds, queues and polices data
// frames, membership tracks when each peer was last heard and which
// life it runs, and routing/wire encodes everything that crosses the
// network. This file holds only the orchestration: what a probe means,
// when a route is repaired, how discovery is answered.
//
// The daemon is transport-agnostic (transport.Transport / clock.Clock)
// and runs unmodified over the deterministic packet simulator and over
// real UDP sockets.
package core

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"drsnet/internal/clock"
	"drsnet/internal/core/membership"
	"drsnet/internal/dataplane"
	"drsnet/internal/icmp"
	"drsnet/internal/linkmon"
	"drsnet/internal/metrics"
	"drsnet/internal/overload"
	"drsnet/internal/routetable"
	"drsnet/internal/routing"
	"drsnet/internal/routing/wire"
	"drsnet/internal/trace"
	"drsnet/internal/transport"
)

// The route vocabulary is defined by internal/routetable and re-
// exported here: the daemon's public API predates the layering, and
// every consumer (runtime, experiments, examples) speaks these names.
type (
	// Route describes the daemon's current path to one destination.
	Route = routetable.Route
	// Repair records one completed route repair, the unit of the
	// recovery-latency experiments.
	Repair = routetable.Repair
	// RTTStats is the smoothed round-trip estimate of one monitored
	// path.
	RTTStats = linkmon.RTTStats
)

// Route kinds.
const (
	// RouteNone means the destination is currently unreachable (or
	// discovery is in flight).
	RouteNone = routetable.None
	// RouteDirect sends straight to the destination on a rail.
	RouteDirect = routetable.Direct
	// RouteRelay sends through another server that can reach the
	// destination.
	RouteRelay = routetable.Relay
)

// Daemon is one node's DRS instance.
type Daemon struct {
	cfg   Config
	tr    transport.Transport
	clock clock.Clock
	mset  *metrics.Set
	// self and rails are tr's node index and rail count, read once:
	// neither changes over a transport's life.
	self, rails int

	mu      sync.Mutex
	started bool
	stopped bool
	deliver func(src int, data []byte)

	// The protocol layers. All are guarded by mu.
	links   *linkmon.Table      // phase-1 probe state per (peer, rail)
	members *membership.Tracker // last-heard times + incarnations
	routes  *routetable.Table   // routes, repairs, discovery lifecycle
	plane   *dataplane.Plane    // data frames + discovery queues

	// Overload protection (all nil/zero unless cfg.Overload.Enabled;
	// guarded by mu). gov is the degraded-mode governor, jitter the
	// per-node deterministic timer spread, ctrlQ the prioritized queue
	// of deferred control intents. pinned marks peers whose
	// last-known-good route was kept while degraded, to re-repair on
	// exit.
	gov        *overload.Governor
	jitter     *overload.Jitter
	ctrlQ      *dataplane.ControlQueue
	pinned     map[int]bool
	drainArmed bool

	// frameBuf is scratch for every frame built and sent immediately
	// (data, probes, echo replies; never queued): transports are done
	// with the payload when Send returns, so the buffer is free for
	// the next frame. Building and sending both happen under mu, which
	// is what keeps the live daemon's concurrent rx goroutines and its
	// timer goroutine off each other's bytes. probes is the probe
	// round's per-round work list, likewise guarded by mu.
	frameBuf []byte
	probes   []probe

	// Per-frame counters, resolved on first use (see metrics.Handle).
	probesSent, probeReplies                            *metrics.Handle
	dataSent, dataDelivered, dataForwarded, dataDropped *metrics.Handle

	rounds *linkmon.Rounds // probe-round driver (own locking)
}

// New creates a DRS daemon for the node tr is attached to.
func New(tr transport.Transport, clock clock.Clock, cfg Config) (*Daemon, error) {
	if tr == nil || clock == nil {
		return nil, fmt.Errorf("core: nil transport or clock")
	}
	if err := cfg.normalize(tr.Nodes(), tr.Node()); err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:     cfg,
		tr:      tr,
		clock:   clock,
		mset:    metrics.NewSet(),
		self:    tr.Node(),
		rails:   tr.Rails(),
		links:   linkmon.NewTable(tr.Nodes(), tr.Rails()),
		members: membership.New(tr.Nodes()),
		routes:  routetable.New(tr.Nodes()),
		rounds:  linkmon.NewRounds(clock),
		probes:  make([]probe, 0, tr.Nodes()*tr.Rails()),
	}
	d.bindCounters()
	d.plane = dataplane.New(tr.Node(), tr.Nodes(), cfg.DataTTL, cfg.QueueCapacity,
		d.mset.Counter(routing.CtrQueueOverflow))
	if ov := cfg.Overload; ov.Enabled {
		d.links.SetRetransmitBudget(overload.NewBucket(ov.ProbeRate, ov.ProbeBurst))
		d.routes.SetQueryBudget(overload.NewBucket(ov.QueryRate, ov.QueryBurst))
		d.gov = overload.NewGovernor(ov)
		// The jitter stream is seeded per (node, incarnation): every
		// node draws a distinct deterministic sequence, so a seeded
		// simulation replays bit-identically while lock-stepped timers
		// spread out.
		d.jitter = overload.NewJitter(uint64(tr.Node())<<32 | uint64(cfg.Incarnation))
		d.ctrlQ = dataplane.NewControlQueue(ov.QueueCapacity,
			d.mset.Counter(routing.CtrCtrlDeferred),
			[dataplane.NumClasses]*metrics.Counter{
				dataplane.ClassLiveness: d.mset.Counter(routing.CtrCtrlShedLiveness),
				dataplane.ClassRepair:   d.mset.Counter(routing.CtrCtrlShedRepair),
			})
		d.pinned = make(map[int]bool)
	}
	// Monitor every configured peer, with a direct route on rail 0.
	// Links start optimistically up: the deployed daemon assumes
	// health until a check fails.
	now := clock.Now()
	for _, p := range cfg.Monitor {
		d.links.Add(p)
		d.routes.SetRoute(p, Route{Kind: RouteDirect, Rail: 0, Via: p})
		d.members.Heard(p, now)
	}
	if cfg.Restore != nil {
		if err := d.restoreLocked(cfg.Restore); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// bindCounters resolves the per-frame counter handles on d.mset.
func (d *Daemon) bindCounters() {
	d.probesSent = d.mset.Handle(routing.CtrProbesSent)
	d.probeReplies = d.mset.Handle(routing.CtrProbeReplies)
	d.dataSent = d.mset.Handle(routing.CtrDataSent)
	d.dataDelivered = d.mset.Handle(routing.CtrDataDelivered)
	d.dataForwarded = d.mset.Handle(routing.CtrDataForwarded)
	d.dataDropped = d.mset.Handle(routing.CtrDataDropped)
}

// Fork returns a copy of d that runs over tr and clock, the copies of
// d's transport and clock in a forked simulation, and logs to tlog
// (nil: nowhere): its link table, membership view, routes and
// repairs, data plane, counter values and probe rounds, started and
// stopped as d is. The copy has no deliver callback. The rounds'
// pending timer belongs to d's scheduler, whose fork maps it with
// ForkEvent. Staggered sends, adaptive-RTO deadlines, the overload
// layer's drains and a discovery's timeout are closures or records
// the copy could not follow, so Fork refuses a daemon that may have
// one pending. Fork only reads d.
func (d *Daemon) Fork(tr transport.Transport, clock clock.Clock, tlog *trace.Log) (*Daemon, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	switch {
	case d.cfg.StaggerProbes:
		return nil, fmt.Errorf("core: node %d: cannot fork staggered probe sends", d.self)
	case d.cfg.AdaptiveRTO.Enabled():
		return nil, fmt.Errorf("core: node %d: cannot fork adaptive-RTO deadlines", d.self)
	case d.cfg.Overload.Enabled:
		return nil, fmt.Errorf("core: node %d: cannot fork the overload layer", d.self)
	}
	routes, err := d.routes.Fork()
	if err != nil {
		return nil, fmt.Errorf("core: node %d: %v", d.self, err)
	}
	f := &Daemon{
		cfg:     d.cfg,
		tr:      tr,
		clock:   clock,
		mset:    d.mset.Fork(),
		self:    d.self,
		rails:   d.rails,
		started: d.started,
		stopped: d.stopped,
		links:   d.links.Fork(),
		members: d.members.Fork(),
		routes:  routes,
		// Scratch as large as d's, so the copy allocates the same
		// whenever it is taken and however far it then runs.
		frameBuf: make([]byte, 0, cap(d.frameBuf)),
		probes:   make([]probe, 0, cap(d.probes)),
	}
	f.cfg.Trace = tlog
	f.bindCounters()
	f.plane = d.plane.Fork(f.mset.Counter(routing.CtrQueueOverflow))
	f.rounds = d.rounds.Fork(clock, f.probeRound)
	if f.started {
		tr.SetReceiver(f.onFrame)
	}
	return f, nil
}

// ForkEvent returns the copy in f, a Fork of d, of the arg one of d's
// pending events carries: the probe rounds' timer. It reports false
// for an arg that is not d's.
func (d *Daemon) ForkEvent(arg any, f *Daemon) (any, bool) {
	if arg == any(d.rounds) {
		return f.rounds, true
	}
	return nil, false
}

// Start installs the receiver and begins the probe loop.
func (d *Daemon) Start() error {
	d.mu.Lock()
	if d.started {
		d.mu.Unlock()
		return fmt.Errorf("core: daemon started twice")
	}
	d.started = true
	d.mu.Unlock()
	d.tr.SetReceiver(d.onFrame)
	if d.cfg.Incarnation > 0 {
		// Open with the rejoin handshake: peers that knew a previous
		// life purge routes relaying through it before the first probe
		// round even runs.
		membership.Rejoin(d.tr, d.cfg.Incarnation)
	}
	d.rounds.Run(d.cfg.ProbeInterval, d.probeRound)
	return nil
}

// Stop halts the daemon.
func (d *Daemon) Stop() {
	d.mu.Lock()
	d.stopped = true
	cancels := d.routes.Cancels()
	d.mu.Unlock()
	d.rounds.Stop()
	for _, c := range cancels {
		if c != nil {
			c()
		}
	}
}

// SetDeliverFunc installs the application receive callback.
func (d *Daemon) SetDeliverFunc(fn func(src int, data []byte)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.deliver = fn
}

// Metrics exposes the daemon's counters.
func (d *Daemon) Metrics() *metrics.Set { return d.mset }

// LinkUp reports the monitored state of the (peer, rail) path.
func (d *Daemon) LinkUp(peer, rail int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.links.State(peer, rail)
	return st != nil && st.Up
}

// RouteTo returns the current route to peer.
func (d *Daemon) RouteTo(peer int) Route {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.routes.Route(peer)
}

// Repairs returns the completed route repairs in order.
func (d *Daemon) Repairs() []Repair {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.routes.Repairs()
}

// RTT returns the smoothed round-trip estimate for the (peer, rail)
// path; ok is false when the peer is unmonitored or no probe has
// completed yet.
func (d *Daemon) RTT(peer, rail int) (RTTStats, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.links.State(peer, rail)
	if st == nil {
		return RTTStats{}, false
	}
	return st.RTT()
}

// ---------------------------------------------------------------
// Phase 2: answer requests, fix problems (frame dispatch).

func (d *Daemon) onFrame(rail, src int, payload []byte) {
	proto, body, err := wire.SplitEnvelope(payload)
	if err != nil {
		return
	}
	switch proto {
	case wire.ProtoICMP:
		d.onICMP(rail, src, body)
	case wire.ProtoControl:
		d.onControl(rail, src, body)
	case wire.ProtoData:
		d.onData(rail, src, body)
	}
}

func (d *Daemon) onICMP(rail, src int, body []byte) {
	echo, err := icmp.Unmarshal(body)
	if err != nil {
		return
	}
	if echo.Request {
		// Phase 2: answer the peer's link check. Hearing a request
		// proves the src→us direction of this rail works; whether that
		// counts as link-liveness evidence is StrictLinkEvidence's
		// call (see noteAliveLocked). echo.Data aliases the receive
		// buffer, which is ours until we return; the reply is built
		// into the scratch and on the wire before then.
		d.mu.Lock()
		defer d.mu.Unlock()
		if reply, err := icmp.Reply(echo); err == nil {
			d.frameBuf = reply.AppendTo(append(d.frameBuf[:0], wire.ProtoICMP))
			_ = d.tr.Send(rail, src, d.frameBuf)
		}
		d.noteAliveLocked(rail, src, echo.Data)
		return
	}
	// Echo reply: must match our outstanding probe for (src, rail).
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped || !d.links.Monitored(src) {
		return
	}
	if echo.ID != uint16(d.self) {
		return // not ours
	}
	st, ok := d.links.Confirm(src, rail, echo.Seq)
	if !ok {
		return // stale reply
	}
	now := d.clock.Now()
	d.members.Heard(src, now)
	d.probeReplies.Inc()
	if len(echo.Data) >= 8 {
		if sentAt := time.Duration(binary.BigEndian.Uint64(echo.Data[:8])); sentAt <= now {
			st.ObserveRTT(now - sentAt)
		}
	}
	if !st.Up {
		d.markUpLocked(src, rail, now)
	}
}

// noteAliveLocked records liveness evidence from an echo request
// heard from src on rail, data being its echo data. The peer's process
// is certainly alive, so membership is always refreshed. What it
// proves about the *link* is subtler: heard traffic vouches for the
// src→us direction only, and under an asymmetric partition our own
// frames to src may be vanishing while theirs arrive. By default (the
// original, optimistic behavior) the evidence is credited against
// probe misses, meets the check an answering round awaits, and may
// re-raise the rail — cheap fast recovery, but it masks one-way cuts.
// With StrictLinkEvidence set, link state moves solely on round-trip
// evidence, so a dead tx direction accumulates misses and fails over
// no matter how much the peer is heard. The requesting end of a pair
// credits only confirmed replies to its own probes. The answering end
// credits a request only when it carries a fresh acknowledgement: a
// nonzero RTT sample, which the requester sends only for a reply it
// confirmed to its previous round's request (sendProbeLocked). The
// request proves the src→us direction now and the acknowledged reply
// the us→src direction one round ago, which is the round trip the
// answering end's own probe would prove. Caller holds d.mu.
func (d *Daemon) noteAliveLocked(rail, src int, data []byte) {
	if d.stopped || !d.links.Monitored(src) {
		return
	}
	d.members.Heard(src, d.clock.Now())
	if d.cfg.StrictLinkEvidence && (src > d.self || !acknowledges(data)) {
		return
	}
	st := d.links.State(src, rail)
	st.Misses = 0
	if st.HeardRequest() && len(data) >= probeData {
		// An answering round measures no round trip of its own: it
		// takes the requester's.
		if rtt := time.Duration(binary.BigEndian.Uint64(data[8:probeData])); rtt > 0 {
			st.ObserveRTT(rtt)
		}
	}
	if !st.Up {
		d.markUpLocked(src, rail, d.clock.Now())
	}
}

// acknowledges reports whether a request's echo data carries an RTT
// sample, which under strict evidence is the requester's
// acknowledgement of the previous round's reply.
func acknowledges(data []byte) bool {
	return len(data) >= probeData && binary.BigEndian.Uint64(data[8:probeData]) != 0
}

func (d *Daemon) event(e trace.Event) {
	if d.cfg.Trace != nil {
		d.cfg.Trace.Append(e)
	}
}

// tracing reports whether a trace sink is installed. Hot paths guard
// event construction with it so Detail strings are only formatted when
// someone will read them.
func (d *Daemon) tracing() bool { return d.cfg.Trace != nil }

var _ routing.Router = (*Daemon)(nil)
