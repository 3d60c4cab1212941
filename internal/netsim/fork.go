package netsim

import (
	"fmt"
	"maps"

	"drsnet/internal/rng"
	"drsnet/internal/simtime"
	"drsnet/internal/topology"
)

// Fork returns a copy of n on sched, a scheduler being forked from
// n's (simtime.Scheduler.ForkFrom): the component and process state,
// both random streams, the impairments and partitions, the segment
// clocks and the traffic counters. It holds no frame yet: ForkTimer
// copies each in-flight frame as the scheduler's fork meets it. The
// copy's frame records are one block, as many as n has made, so a fork
// allocates the same whenever it is taken and however far it then runs.
// A switched network and an impairment that delays frames deliver
// through closures a copy could not follow, and a tap is an observer
// the copy would share, so Fork refuses them. Fork only reads n.
//
// With into nil the copy is new and installs no handler, since the
// copies of the nodes' transports install their own. Otherwise into, a
// network of a finished fork whose scheduler is now sched, is
// overwritten and returned: it keeps its handlers, the transports its
// nodes' copies reuse, and rebuilds its freelist from its own record
// block, leaving alone the frames its stopped run left pending, which
// sched has dropped.
func (n *Network) Fork(into *Network, sched *simtime.Scheduler) (*Network, error) {
	if n.params.Switched {
		return nil, fmt.Errorf("netsim: cannot fork a switched network: its hub deliveries are closures")
	}
	if n.tap != nil {
		return nil, fmt.Errorf("netsim: cannot fork a network with a tap")
	}
	for c, imp := range n.imp {
		if imp.Delay > 0 || imp.Jitter > 0 {
			return nil, fmt.Errorf("netsim: cannot fork under an impairment delay on component %d: delayed frames are closures", int(c))
		}
	}
	f := into
	if f == nil {
		f = &Network{}
		f.deliverEv = f.deliverEvent
	}
	n.state.fork(&f.state, sched)
	f.cluster, f.fabric = n.cluster, n.fabric
	if len(f.segs) != len(n.segs) {
		f.segs = make([]segment, len(n.segs))
	}
	for r := range n.segs {
		f.segs[r] = segment{busyUntil: n.segs[r].busyUntil, stats: n.segs[r].stats}
	}
	if len(f.rx) != len(n.rx) {
		f.rx = make([][]byte, len(n.rx))
	}
	f.part = nil
	if n.part != nil {
		f.part = maps.Clone(n.part)
	}
	if cap(f.block) < n.records {
		f.block = make([]frameEvent, n.records)
	}
	f.block, f.freeEv = f.block[:n.records], nil
	for i := range f.block {
		ev := &f.block[i]
		ev.tm = simtime.Timer{}
		ev.tm.Bind(f.deliverEv, ev)
		ev.next, f.freeEv = f.freeEv, ev
	}
	f.records = n.records
	return f, nil
}

// ForkTimer returns, for the timer of one of n's in-flight frames, the
// timer of its copy in into, a Fork of n; when the frame is the last
// in its segment's lane, the copy is the last in the copied lane.
func (n *Network) ForkTimer(into *Network, t *simtime.Timer) (*simtime.Timer, error) {
	ev, ok := t.Arg().(*frameEvent)
	if !ok || t != &ev.tm {
		return nil, fmt.Errorf("netsim: cannot fork a timer carrying %T", t.Arg())
	}
	c := into.frameRecord()
	c.p.set(ev.p.bytes())
	c.src, c.dst, c.rail = ev.src, ev.dst, ev.rail
	into.segs[ev.rail].lane.ForkLane(&n.segs[ev.rail].lane, t, &c.tm)
	return &c.tm, nil
}

// fork makes into a copy of the fault state on sched, with no tap,
// reusing into's storage where its shape matches. into keeps its
// handlers; a new one gets empty slots.
func (s *state) fork(into *state, sched *simtime.Scheduler) {
	txUp, rxUp, nodeUp := into.txUp, into.rxUp, into.nodeUp
	handler, rnd, impRnd, imp := into.handler, into.rnd, into.impRnd, into.imp
	*into = *s
	into.sched, into.tap = sched, nil
	if len(txUp) != len(s.txUp) || len(nodeUp) != len(s.nodeUp) {
		up := make([]bool, 2*len(s.txUp)+len(s.nodeUp))
		txUp = up[:len(s.txUp):len(s.txUp)]
		rxUp = up[len(s.txUp) : 2*len(s.txUp) : 2*len(s.txUp)]
		nodeUp = up[2*len(s.txUp):]
	}
	into.txUp, into.rxUp, into.nodeUp = txUp, rxUp, nodeUp
	copy(txUp, s.txUp)
	copy(rxUp, s.rxUp)
	copy(nodeUp, s.nodeUp)
	if len(handler) != len(s.handler) {
		handler = make([]Handler, len(s.handler))
	}
	into.handler = handler
	if rnd == nil {
		rs := new([2]rng.Source)
		rnd, impRnd = &rs[0], &rs[1]
	}
	*rnd, *impRnd = *s.rnd, *s.impRnd
	into.rnd, into.impRnd = rnd, impRnd
	into.imp = nil
	if s.imp != nil {
		if imp == nil {
			imp = make(map[topology.Component]Impairment, len(s.imp))
		}
		clear(imp)
		maps.Copy(imp, s.imp)
		into.imp = imp
	}
}
