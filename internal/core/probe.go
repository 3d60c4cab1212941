package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"drsnet/internal/dataplane"
	"drsnet/internal/icmp"
	"drsnet/internal/routing"
	"drsnet/internal/routing/wire"
	"drsnet/internal/trace"
	"drsnet/internal/transport"
)

// ---------------------------------------------------------------
// Phase 1: link checks.

// probeData is the length of a probe's echo data: its send time, then
// the requester's newest RTT sample on the path.
const probeData = 16

// probe is one echo request a round has numbered and is about to send.
type probe struct {
	peer, rail int
	seq        uint16
	ack        bool          // acknowledges the previous round's reply
	deadline   time.Duration // adaptive RTO; 0 = round-based misses
}

// probeRound runs one phase-1 round: account the previous round's
// misses, then check every monitored peer on every rail, by probe or,
// at the answering end of a shared exchange, by awaiting the peer's
// request. The rounds driver reschedules it after it returns.
func (d *Daemon) probeRound() {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return
	}
	now := d.clock.Now()
	// Overload housekeeping first: re-evaluate degraded mode and
	// drain whatever deferred control work the budgets now admit.
	d.overloadRoundLocked(now)
	if d.cfg.FlapDamping.Enabled() {
		d.releaseDampedLocked(now)
	}
	if d.cfg.PreferLowLatency {
		d.steerByLatencyLocked(now)
	}
	rto := d.cfg.AdaptiveRTO
	// One echo exchange per pair and rail: the lower id requests, and
	// the higher id answers instead of probing once it has heard the
	// peer's request. Under strict evidence only a request that
	// acknowledges the reply to the previous round's request counts as
	// heard, and under adaptive deadlines each heard request arms the
	// answering end's deadline for the next (see noteAliveLocked).
	self := d.self
	probes := d.probes[:0]
	for peer := 0; peer < d.links.Nodes(); peer++ {
		if !d.links.Monitored(peer) {
			continue
		}
		answer := peer < self
		for rail := 0; rail < d.rails; rail++ {
			seq, send, fresh, down := d.links.BeginRound(peer, rail, d.cfg.MissThreshold, answer)
			if down {
				d.markDownLocked(peer, rail, now)
			}
			if !send {
				continue
			}
			p := probe{peer: peer, rail: rail, seq: seq, ack: fresh}
			if rto.Enabled() {
				p.deadline = d.rtoDeadlineLocked(d.links.State(peer, rail))
			}
			probes = append(probes, p)
		}
	}
	d.probes = probes
	if d.cfg.StaggerProbes && len(probes) > 1 {
		// Staggered sends fire from timers across the interval, past
		// this round's hold on mu, so they get their own list.
		batch := append([]probe(nil), probes...)
		d.mu.Unlock()
		d.rounds.Stagger(d.cfg.ProbeInterval, len(batch), func(i int) {
			d.mu.Lock()
			d.sendRoundProbeLocked(batch[i])
			d.mu.Unlock()
		})
		return
	}
	for _, p := range probes {
		d.sendRoundProbeLocked(p)
	}
	d.mu.Unlock()
}

// sendRoundProbeLocked transmits one of a round's probes, stamped with
// the instant it actually leaves, and arms its adaptive deadline.
// Caller holds d.mu.
func (d *Daemon) sendRoundProbeLocked(p probe) {
	d.sendProbeLocked(p.peer, p.rail, p.seq, d.clock.Now(), p.ack, false)
	if p.deadline > 0 {
		d.armDeadline(p.peer, p.rail, p.seq, p.deadline)
	}
}

// sendProbeLocked builds one echo request into the frame scratch and
// transmits it. Its data is the send time, whose echoed copy yields an
// RTT sample with no per-probe state at the sender, then the newest
// sample on this path not yet sent, which gives the answering end an
// RTT of its own (zero when there is none). Under strict evidence that
// sample is also the acknowledgement: it is carried only when ack is
// set, and then as at least 1 ns, so that a zero-latency fabric still
// acknowledges. Caller holds d.mu.
func (d *Daemon) sendProbeLocked(peer, rail int, seq uint16, now time.Duration, ack, retransmit bool) {
	var data [probeData]byte
	binary.BigEndian.PutUint64(data[:8], uint64(now))
	rtt := d.links.State(peer, rail).TakeSample()
	if d.cfg.StrictLinkEvidence {
		if ack {
			rtt = max(rtt, 1)
		} else {
			rtt = 0
		}
	}
	binary.BigEndian.PutUint64(data[8:], uint64(rtt))
	echo := icmp.Echo{Request: true, ID: uint16(d.self), Seq: seq, Data: data[:]}
	d.frameBuf = echo.AppendTo(append(d.frameBuf[:0], wire.ProtoICMP))
	if err := d.tr.Send(rail, peer, d.frameBuf); err == nil {
		d.probesSent.Inc()
		if retransmit {
			d.mset.Counter(routing.CtrProbeRetransmits).Inc()
		}
	}
}

// rtoCheck is one adaptive deadline in flight: the check numbered seq
// on d's (peer, rail) path, the reply to a probe or, at the answering
// end, the peer's next request. It is the arg of the clock event that
// fires the deadline, so a forked simulation can map it to its copy
// (see ForkEvent).
type rtoCheck struct {
	d          *Daemon
	peer, rail int
	seq        uint16
}

// runRTOCheck is an adaptive deadline's callback, arg its *rtoCheck.
func runRTOCheck(arg any) {
	c := arg.(*rtoCheck)
	c.d.probeExpired(c.peer, c.rail, c.seq)
}

// armDeadline schedules the adaptive deadline of the check numbered seq
// on (peer, rail) after the given delay. The deadline is never
// cancelled: a check met meanwhile makes it a no-op.
func (d *Daemon) armDeadline(peer, rail int, seq uint16, after time.Duration) {
	d.clock.AfterCall(after, runRTOCheck, &rtoCheck{d: d, peer: peer, rail: rail, seq: seq})
}

// probeExpired is the adaptive-RTO deadline handler: the check is
// overdue against the learned RTT, so the miss is counted now —
// typically within tens of milliseconds — instead of at the next
// round, and a replacement probe goes out under an exponentially
// backed-off deadline. The answering end, whose check was the peer's
// next request, retransmits a probe of its own just the same. A check
// that was already met (or superseded by a newer one) makes this a
// no-op.
func (d *Daemon) probeExpired(peer, rail int, seq uint16) {
	d.mu.Lock()
	if d.stopped {
		d.mu.Unlock()
		return
	}
	st, ok := d.links.Expire(peer, rail, seq)
	if !ok {
		d.mu.Unlock()
		return
	}
	now := d.clock.Now()
	d.mset.Counter(routing.CtrRTOExpired).Inc()
	if st.Misses >= d.cfg.MissThreshold {
		d.markDownLocked(peer, rail, now)
	}
	if d.gov != nil && !d.links.AllowRetransmit(now) {
		// Budget exhausted: shed this retransmit instead of feeding
		// the storm. A liveness intent parks on the control queue so
		// the path re-probes as soon as tokens return (and the next
		// round re-probes regardless).
		d.mset.Counter(routing.CtrProbeShed).Inc()
		d.shedLocked(now)
		d.deferControlLocked(dataplane.ControlItem{Class: dataplane.ClassLiveness, Peer: peer})
		d.mu.Unlock()
		return
	}
	nseq, _ := d.links.BeginProbe(peer, rail, d.cfg.MissThreshold)
	deadline := d.rtoDeadlineLocked(st)
	d.sendProbeLocked(peer, rail, nseq, now, false, true)
	d.mu.Unlock()
	d.armDeadline(peer, rail, nseq, deadline)
}

// steerByLatencyLocked moves direct routes to a clearly faster rail.
// A move needs both rails measured (≥ minSteerSamples each) and the
// candidate's SRTT below half the current rail's — hysteresis that
// keeps routes stable under ordinary jitter. Caller holds d.mu.
func (d *Daemon) steerByLatencyLocked(now time.Duration) {
	const minSteerSamples = 8
	for peer := 0; peer < d.links.Nodes(); peer++ {
		if !d.links.Monitored(peer) {
			continue
		}
		rt := d.routes.Route(peer)
		if rt.Kind != RouteDirect {
			continue
		}
		cur := d.links.State(peer, rt.Rail)
		curRTT, curSamples := cur.SRTT()
		if !cur.Up || curSamples < minSteerSamples {
			continue
		}
		best := rt.Rail
		bestRTT := curRTT
		for rail := 0; rail < d.rails; rail++ {
			if rail == rt.Rail {
				continue
			}
			st := d.links.State(peer, rail)
			srtt, samples := st.SRTT()
			if st.Up && !st.Damped() && samples >= minSteerSamples && srtt*2 < curRTT && srtt < bestRTT {
				best = rail
				bestRTT = srtt
			}
		}
		if best != rt.Rail {
			d.installLocked(peer, Route{Kind: RouteDirect, Rail: best, Via: peer}, now)
		}
	}
}

// markDownLocked transitions a link to down and repairs routes that
// depended on it. Caller holds d.mu.
func (d *Daemon) markDownLocked(peer, rail int, now time.Duration) {
	st := d.links.State(peer, rail)
	if !st.Up {
		return
	}
	st.Up = false
	st.RecordFlap(d.cfg.FlapDamping, now)
	d.mset.Counter(routing.CtrLinkDown).Inc()
	d.mset.Counter(routing.CtrLinkFlaps).Inc()
	d.event(trace.Event{At: now, Node: d.self, Kind: trace.KindLinkDown,
		Peer: peer, Rail: rail})
	// Repair the peer's own route if it used this rail directly.
	if rt := d.routes.Route(peer); rt.Kind == RouteDirect && rt.Rail == rail {
		d.repairLocked(peer, now)
	}
	// Relay routes through this peer survive while any rail to the
	// relay works; once every rail to the relay is down, they die too.
	if !d.links.AnyUp(peer) {
		for dst := 0; dst < d.links.Nodes(); dst++ {
			if rt := d.routes.Route(dst); rt.Kind == RouteRelay && rt.Via == peer {
				d.repairLocked(dst, now)
			}
		}
	}
}

// markUpLocked transitions a link to up and upgrades routes — unless
// route-flap damping holds the recovered path down, in which case the
// link is physically up but stays untrusted until the probe round's
// release sweep decays its penalty below the reuse threshold.
func (d *Daemon) markUpLocked(peer, rail int, now time.Duration) {
	st := d.links.State(peer, rail)
	if st.Up {
		return
	}
	st.Up = true
	d.mset.Counter(routing.CtrLinkUp).Inc()
	d.event(trace.Event{At: now, Node: d.self, Kind: trace.KindLinkUp,
		Peer: peer, Rail: rail})
	if st.Damped() || st.Suppressed(d.cfg.FlapDamping, now) {
		if !st.Damped() {
			st.EnterDamped(now)
			d.mset.Counter(routing.CtrRouteDamped).Inc()
			d.event(trace.Event{At: now, Node: d.self, Kind: trace.KindRouteDamped,
				Peer: peer, Rail: rail,
				Detail: fmt.Sprintf("penalty %.2f", st.Penalty(d.cfg.FlapDamping, now))})
		}
		return
	}
	// A live direct link always beats a relay, and beats a direct
	// route on a dead or damped rail.
	rt := d.routes.Route(peer)
	needUpgrade := rt.Kind != RouteDirect || !d.links.Usable(peer, rt.Rail)
	if needUpgrade {
		d.installLocked(peer, Route{Kind: RouteDirect, Rail: rail, Via: peer}, now)
	}
}

// releaseDampedLocked is the probe round's damping sweep: every path
// whose penalty has decayed below the reuse threshold is re-trusted,
// and if it is up and the current route is worse, upgraded to.
// Caller holds d.mu.
func (d *Daemon) releaseDampedLocked(now time.Duration) {
	for peer := 0; peer < d.links.Nodes(); peer++ {
		if !d.links.Monitored(peer) {
			continue
		}
		for rail := 0; rail < d.rails; rail++ {
			st := d.links.State(peer, rail)
			held, released := st.TryRelease(d.cfg.FlapDamping, now)
			if !released {
				continue
			}
			d.mset.Counter(routing.CtrDampedNs).Add(int64(held))
			d.event(trace.Event{At: now, Node: d.self, Kind: trace.KindRouteUndamped,
				Peer: peer, Rail: rail, Detail: fmt.Sprintf("held %v", held)})
			if !st.Up {
				continue
			}
			rt := d.routes.Route(peer)
			if rt.Kind != RouteDirect || !d.links.Usable(peer, rt.Rail) {
				d.installLocked(peer, Route{Kind: RouteDirect, Rail: rail, Via: peer}, now)
			}
		}
	}
}

// repairLocked replaces the route to peer: second usable direct rail
// first (damped rails are not trusted), then relay discovery. In
// degraded mode an existing route is pinned last-known-good instead
// of being torn down and requeried: during a correlated storm the
// discovery would mostly fail anyway, and suppressing the churn is
// the point — the route is re-evaluated when the episode exits.
func (d *Daemon) repairLocked(peer int, now time.Duration) {
	if rail, ok := d.links.FirstUsable(peer); ok {
		d.installLocked(peer, Route{Kind: RouteDirect, Rail: rail, Via: peer}, now)
		return
	}
	if d.gov != nil && d.gov.Degraded() {
		if rt := d.routes.Route(peer); rt.Kind != RouteNone {
			if !d.pinned[peer] {
				d.pinned[peer] = true
				d.mset.Counter(routing.CtrRoutePinned).Inc()
				d.event(trace.Event{At: now, Node: d.self, Kind: trace.KindRoutePinned,
					Peer: peer, Rail: rt.Rail, Detail: fmt.Sprintf("%s via %d", rt.Kind, rt.Via)})
			}
			return
		}
	}
	// No direct path remains: note the loss and ask the cluster.
	if d.routes.Route(peer).Kind != RouteNone {
		d.routes.SetRoute(peer, Route{Kind: RouteNone})
		d.event(trace.Event{At: now, Node: d.self, Kind: trace.KindRouteLost, Peer: peer, Rail: -1})
	}
	d.startQueryLocked(peer, now)
}

// installLocked records a new route, completes any pending discovery,
// logs the repair, and flushes queued traffic. A route whose first hop
// is a damped link is refused: discovery can prove a flapping rail
// works *right now* (the target answers the retried query the moment
// it comes back), and without this gate an offer would re-trust the
// rail microseconds after damping held it down.
func (d *Daemon) installLocked(peer int, rt Route, now time.Duration) {
	if d.links.Monitored(rt.Via) && d.links.State(rt.Via, rt.Rail).Damped() {
		return
	}
	if !d.routes.Install(peer, rt, now) {
		return
	}
	delete(d.pinned, peer) // a fresh install supersedes any pin
	d.event(trace.Event{At: now, Node: d.self, Kind: trace.KindRouteInstalled,
		Peer: peer, Rail: rt.Rail, Detail: fmt.Sprintf("%s via %d", rt.Kind, rt.Via)})
	d.mset.Counter(routing.CtrRepairs).Inc()
	// Flush outside the lock is unnecessary: transports never call
	// back inline into SendData paths, and the simulator delivers
	// asynchronously.
	for _, frame := range d.plane.Flush(peer) {
		d.forwardLocked(peer, frame)
	}
}

// startQueryLocked begins (or refreshes) relay discovery for peer,
// budget permitting: a discovery the token bucket refuses is counted,
// reported to the degraded-mode governor, and deferred to the control
// queue — drained when tokens return — instead of broadcast.
func (d *Daemon) startQueryLocked(peer int, now time.Duration) {
	if d.gov != nil {
		if _, pending := d.routes.Pending(peer); !pending && !d.routes.AllowQuery(now) {
			d.mset.Counter(routing.CtrQueryShed).Inc()
			d.shedLocked(now)
			d.deferControlLocked(dataplane.ControlItem{Class: dataplane.ClassRepair, Peer: peer})
			return
		}
	}
	d.sendQueryLocked(peer, now)
}

// sendQueryLocked is the unbudgeted tail of startQueryLocked (the
// control-queue drain calls it directly after spending the token).
func (d *Daemon) sendQueryLocked(peer int, now time.Duration) {
	q := d.routes.Begin(peer, now)
	if q == nil {
		return // one discovery in flight per target
	}
	query := wire.Query{
		Origin: uint16(d.self),
		Target: uint16(peer),
		Seq:    q.Seq,
		TTL:    uint8(d.cfg.RelayTTL),
	}
	payload := wire.Envelope(wire.ProtoControl, wire.MarshalQuery(query))
	for rail := 0; rail < d.rails; rail++ {
		if err := d.tr.Send(rail, transport.Broadcast, payload); err == nil {
			d.mset.Counter(routing.CtrQueriesSent).Inc()
		}
	}
	d.event(trace.Event{At: now, Node: d.self, Kind: trace.KindQuerySent,
		Peer: peer, Rail: -1, Detail: fmt.Sprintf("seq=%d ttl=%d", q.Seq, query.TTL)})
	q.Cancel = d.clock.AfterFunc(d.cfg.QueryTimeout, func() { d.queryExpired(peer, q.Seq) })
}

// queryExpired abandons a discovery that received no offer; the next
// probe round retries while the peer remains unreachable.
func (d *Daemon) queryExpired(peer int, seq uint32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stopped {
		return
	}
	q, ok := d.routes.Abandon(peer, seq)
	if !ok {
		return
	}
	// Retry immediately if the peer is still routeless and a sender is
	// waiting; otherwise the next markDown/SendData will requery.
	if d.routes.Route(peer).Kind == RouteNone && d.plane.QueueLen(peer) > 0 {
		d.startQueryLocked(peer, d.clock.Now())
		// Preserve the original loss time for latency accounting.
		if nq, ok := d.routes.Pending(peer); ok {
			nq.LostAt = q.LostAt
		}
	}
}
