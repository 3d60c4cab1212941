package core

import (
	"fmt"
	"sort"
	"time"

	"drsnet/internal/dataplane"
	"drsnet/internal/linkmon"
	"drsnet/internal/routing"
	"drsnet/internal/trace"
)

// Overload protection: the daemon-side half of internal/overload.
//
// The budgets live in the layers that own the traffic they bound —
// linkmon carries the probe-retransmit bucket, routetable the
// discovery bucket — and this file supplies the orchestration: what a
// budget refusal defers, when the prioritized control queue drains,
// and what degraded mode pins. Everything is a no-op (and every hook
// a nil check) unless cfg.Overload.Enabled, so seeded goldens stay
// byte-identical with the layer off.

// rtoDeadlineLocked is the adaptive-RTO deadline for st, the state of
// the path to peer, extended by up to JitterFrac of deterministic
// per-node jitter when overload protection is on — synchronized nodes
// desynchronize their retransmits instead of storming in lock-step.
// Before its first RTT sample a path's base deadline is RTO.Max,
// except at the answering end (peer < self), where it is RTO.Min: the
// answering end takes its samples from the requester's requests, and
// the first request carries none, so with Max a cut in a path's first
// round would be declared there seconds late. Caller holds d.mu.
func (d *Daemon) rtoDeadlineLocked(peer int, st *linkmon.State) time.Duration {
	rto := d.cfg.AdaptiveRTO
	if _, samples := st.SRTT(); samples == 0 && peer < d.self {
		rto.Max = rto.Min
	}
	dl := st.Deadline(rto)
	if d.gov != nil {
		dl = d.jitter.Scale(dl, d.cfg.Overload.JitterFrac)
	}
	return dl
}

// shedLocked records one budget-saturation event with the governor,
// entering degraded mode when saturation crosses the threshold.
// Caller holds d.mu.
func (d *Daemon) shedLocked(now time.Duration) {
	if d.gov == nil {
		return
	}
	if d.gov.Shed(now) {
		d.mset.Counter(routing.CtrDegradedEnter).Inc()
		d.event(trace.Event{At: now, Node: d.self, Kind: trace.KindDegradedEnter,
			Peer: -1, Rail: -1})
	}
}

// deferControlLocked parks a control intent on the prioritized queue
// (deduplicated, so one flapping peer cannot occupy it) and makes
// sure a drain is scheduled. Caller holds d.mu.
func (d *Daemon) deferControlLocked(it dataplane.ControlItem) {
	if d.ctrlQ == nil {
		return
	}
	if !d.ctrlQ.Contains(it) {
		d.ctrlQ.Push(it)
	}
	d.armDrainLocked()
}

// armDrainLocked schedules one control-queue drain a quarter probe
// interval out (jittered) unless one is already pending. The drain
// re-arms itself while work remains, so deferred intents trickle out
// at the budgeted rate instead of waiting for the next full round.
// Caller holds d.mu.
func (d *Daemon) armDrainLocked() {
	if d.ctrlQ == nil || d.drainArmed || d.stopped || d.ctrlQ.Len() == 0 {
		return
	}
	d.drainArmed = true
	delay := d.cfg.ProbeInterval / 4
	if delay <= 0 {
		delay = 50 * time.Millisecond
	}
	d.clock.AfterCall(d.jitter.Scale(delay, d.cfg.Overload.JitterFrac), runDrain, d)
}

// runDrain is the clock callback armDrainLocked schedules: one
// budgeted control-queue drain, re-armed while work remains.
func runDrain(arg any) {
	d := arg.(*Daemon)
	d.mu.Lock()
	defer d.mu.Unlock()
	d.drainArmed = false
	if d.stopped {
		return
	}
	d.drainControlLocked(d.clock.Now())
	d.armDrainLocked()
}

// overloadRoundLocked is the probe round's overload housekeeping:
// re-evaluate the degraded-mode exit (unpinning routes when the storm
// has passed) and drain whatever deferred work the budgets now admit.
// Caller holds d.mu.
func (d *Daemon) overloadRoundLocked(now time.Duration) {
	if d.gov == nil {
		return
	}
	if exited, held := d.gov.Tick(now); exited {
		d.mset.Counter(routing.CtrDegradedNs).Add(int64(held))
		d.event(trace.Event{At: now, Node: d.self, Kind: trace.KindDegradedExit,
			Peer: -1, Rail: -1, Detail: fmt.Sprintf("held %v", held)})
		d.unpinRoutesLocked(now)
	}
	d.drainControlLocked(now)
}

// unpinRoutesLocked re-evaluates every route kept last-known-good
// during the degraded episode, in ascending peer order so a seeded
// run replays identically. Caller holds d.mu.
func (d *Daemon) unpinRoutesLocked(now time.Duration) {
	if len(d.pinned) == 0 {
		return
	}
	peers := make([]int, 0, len(d.pinned))
	for peer := range d.pinned {
		peers = append(peers, peer)
	}
	sort.Ints(peers)
	for _, peer := range peers {
		delete(d.pinned, peer)
		if d.links.Monitored(peer) {
			d.repairLocked(peer, now)
		}
	}
}

// drainControlLocked services the prioritized control queue in class
// order — liveness re-probes, then deferred discoveries — spending
// budget tokens as it goes and stopping a class the moment its budget
// runs dry. Caller holds d.mu.
func (d *Daemon) drainControlLocked(now time.Duration) {
	if d.ctrlQ == nil {
		return
	}
	for d.ctrlQ.Depth(dataplane.ClassLiveness) > 0 {
		it, _ := d.ctrlQ.PeekClass(dataplane.ClassLiveness)
		if !d.links.Monitored(it.Peer) {
			d.ctrlQ.PopClass(dataplane.ClassLiveness)
			continue
		}
		if !d.links.AllowRetransmit(now) {
			break
		}
		d.ctrlQ.PopClass(dataplane.ClassLiveness)
		d.reprobeLocked(it.Peer, now)
	}
	for d.ctrlQ.Depth(dataplane.ClassRepair) > 0 {
		it, _ := d.ctrlQ.PeekClass(dataplane.ClassRepair)
		if _, pending := d.routes.Pending(it.Peer); pending ||
			!d.links.Monitored(it.Peer) || d.routes.Route(it.Peer).Kind != RouteNone {
			d.ctrlQ.PopClass(dataplane.ClassRepair) // intent went stale
			continue
		}
		if !d.routes.AllowQuery(now) {
			break
		}
		d.ctrlQ.PopClass(dataplane.ClassRepair)
		d.sendQueryLocked(it.Peer, now)
	}
}

// reprobeLocked sends a budget-admitted replacement probe to peer on
// every rail without an outstanding one — the liveness intent a shed
// retransmit parked. Caller holds d.mu.
func (d *Daemon) reprobeLocked(peer int, now time.Duration) {
	for rail := 0; rail < d.rails; rail++ {
		st := d.links.State(peer, rail)
		if st == nil || st.Pending {
			continue
		}
		seq, down := d.links.BeginProbe(peer, rail, d.cfg.MissThreshold)
		if down {
			d.markDownLocked(peer, rail, now)
		}
		d.sendProbeLocked(peer, rail, seq, now, false, true)
		if d.cfg.AdaptiveRTO.Enabled() {
			d.armDeadlineLocked(peer, rail, seq, d.rtoDeadlineLocked(peer, st))
		}
	}
}
