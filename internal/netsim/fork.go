package netsim

import (
	"fmt"
	"maps"

	"drsnet/internal/rng"
	"drsnet/internal/simtime"
)

// Fork returns a copy of n on sched, a scheduler being forked from
// n's (simtime.Scheduler.ForkFrom): the component and process state,
// both random streams, the impairments and partitions, the segment
// clocks and the traffic counters. It installs no handler, since the
// copies of the nodes' transports install their own, and it holds no
// frame yet: ForkTimer copies each in-flight frame as the scheduler's
// fork meets it. The copy's frame records are made in one block, as
// many as n has made, so a fork allocates the same whenever it is
// taken and however far it then runs. A switched network and an
// impairment that delays frames deliver through closures a copy could
// not follow, and a tap is an observer the copy would share, so Fork
// refuses them. Fork only reads n.
func (n *Network) Fork(sched *simtime.Scheduler) (*Network, error) {
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
	f := &Network{
		state:   n.state.fork(sched),
		cluster: n.cluster,
		segs:    make([]segment, len(n.segs)),
		rx:      make([][]byte, len(n.rx)),
		fabric:  n.fabric,
	}
	for r := range n.segs {
		f.segs[r].busyUntil, f.segs[r].stats = n.segs[r].busyUntil, n.segs[r].stats
	}
	if n.part != nil {
		f.part = maps.Clone(n.part)
	}
	f.deliverEv = f.deliverEvent
	block := make([]frameEvent, n.records)
	for i := range block {
		ev := &block[i]
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

// fork copies the fault state onto sched, with no handler or tap.
func (s *state) fork(sched *simtime.Scheduler) state {
	f := *s
	f.sched = sched
	up := make([]bool, 2*len(s.txUp)+len(s.nodeUp))
	f.txUp = up[:len(s.txUp):len(s.txUp)]
	f.rxUp = up[len(s.txUp) : 2*len(s.txUp) : 2*len(s.txUp)]
	f.nodeUp = up[2*len(s.txUp):]
	copy(f.txUp, s.txUp)
	copy(f.rxUp, s.rxUp)
	copy(f.nodeUp, s.nodeUp)
	f.handler = make([]Handler, len(s.handler))
	f.tap = nil
	rs := &[2]rng.Source{*s.rnd, *s.impRnd}
	f.rnd, f.impRnd = &rs[0], &rs[1]
	if s.imp != nil {
		f.imp = maps.Clone(s.imp)
	}
	return f
}
