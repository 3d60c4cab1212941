package runtime

import (
	"fmt"
	"slices"
	"time"

	"drsnet/internal/chaos"
	"drsnet/internal/netsim"
	"drsnet/internal/routing"
	"drsnet/internal/simtime"
)

// Fork returns a copy of the cluster at its current instant: its own
// scheduler, network, routers and accounting, whose every later event
// is the one c would run, at the same (at, seq). Driving the copy
// forward therefore gives the Result a run of c's spec would, and c
// itself is left as it was, so it can go on or be forked again. The
// copy logs to a copy of c's trace, and reports its deliveries to the
// spec's OnDeliver, if any, as c does. Fork only reads c: any number of
// goroutines may fork one cluster at once, provided nothing drives it
// meanwhile.
//
// Each layer copies its own state and the records its pending events
// carry: the scheduler its pending set, the network its fault state,
// counters and in-flight frames, each DRS daemon its tables, counters
// and probe rounds, and the cluster its flows, faults, deliveries and
// trace. What a layer cannot copy Fork refuses, naming it: a fabric, a
// protocol other than the DRS, an invariant checker, chaos episodes
// and the crash–restart lifecycle here; a switched network and an
// impairment delay in the network; staggered sends, adaptive-RTO
// deadlines, the overload layer and a pending discovery timeout in
// the daemons; and any other pending closure in the scheduler.
func (c *Cluster) Fork() (*Cluster, error) {
	if err := c.forkable(); err != nil {
		return nil, err
	}
	src := c.Network()
	sched := simtime.NewScheduler()
	net, err := src.Fork(sched)
	if err != nil {
		return nil, fmt.Errorf("runtime: %v", err)
	}
	f := &Cluster{
		spec:            c.spec,
		sched:           sched,
		net:             net,
		builder:         c.builder,
		log:             c.log.Fork(),
		sent:            append([]int(nil), c.sent...),
		deliveries:      make(map[pair][]time.Duration, len(c.deliveries)),
		started:         c.started,
		stopped:         c.stopped,
		flowsScheduled:  c.flowsScheduled,
		faultsScheduled: c.faultsScheduled,
	}
	f.spec.Trace = f.log
	f.spec.Faults = slices.Clone(c.spec.Faults)
	for k, del := range c.deliveries {
		f.deliveries[k] = append([]time.Duration(nil), del...)
	}
	f.flows = append([]flowRec(nil), c.flows...)
	for i := range f.flows {
		f.flows[i].c = f
	}
	f.faults = append([]faultRec(nil), c.faults...)
	for i := range f.faults {
		f.faults[i].c = f
	}
	f.routers = make([]routing.Router, len(c.routers))
	for node := range c.routers {
		d, _ := c.Daemon(node)
		r, err := d.Fork(netsim.NewTransport(net, node), simtime.Clock{Sched: sched}, f.log)
		if err != nil {
			return nil, fmt.Errorf("runtime: %v", err)
		}
		f.wireDeliver(node, r)
		f.routers[node] = r
	}
	if err := sched.ForkFrom(c.sched, forkCopier{src: c, dst: f}); err != nil {
		return nil, fmt.Errorf("runtime: %v", err)
	}
	return f, nil
}

// forkable refuses what Fork does not copy at the cluster level.
func (c *Cluster) forkable() error {
	if c.spec.Fabric() != nil {
		return fmt.Errorf("runtime: cannot fork a %s fabric", c.spec.Topology.Kind)
	}
	if c.spec.Protocol != ProtoDRS {
		return fmt.Errorf("runtime: cannot fork a %s cluster: only DRS daemons copy themselves", c.spec.Protocol)
	}
	if c.checker != nil {
		return fmt.Errorf("runtime: cannot fork an invariant checker")
	}
	for _, e := range c.spec.Episodes {
		if e.Kind == chaos.Crash {
			return fmt.Errorf("runtime: cannot fork a crash episode: its lifecycle restart is a closure")
		}
	}
	if len(c.spec.Episodes) > 0 {
		return fmt.Errorf("runtime: cannot fork a chaos episode")
	}
	if c.spec.Tunables.Lifecycle {
		return fmt.Errorf("runtime: cannot fork the crash–restart lifecycle")
	}
	return nil
}

// forkCopier maps the records src's pending events carry to their
// copies in dst, its fork.
type forkCopier struct{ src, dst *Cluster }

// CopyArg implements simtime.EventCopier: flow ticks and faults are
// the cluster's, probe rounds the daemons'.
func (fc forkCopier) CopyArg(arg any) (any, error) {
	switch a := arg.(type) {
	case *flowRec:
		return &fc.dst.flows[a.i], nil
	case *faultRec:
		return &fc.dst.faults[a.i], nil
	}
	for node := range fc.src.routers {
		d, _ := fc.src.Daemon(node)
		dd, _ := fc.dst.Daemon(node)
		if cp, ok := d.ForkEvent(arg, dd); ok {
			return cp, nil
		}
	}
	return nil, fmt.Errorf("cannot fork an event carrying %T", arg)
}

// CopyTimer implements simtime.EventCopier: the only owned timers are
// the network's in-flight frames.
func (fc forkCopier) CopyTimer(t *simtime.Timer) (*simtime.Timer, error) {
	return fc.src.Network().ForkTimer(fc.dst.Network(), t)
}

// SetFaults fills the cluster's scheduled fail-stop faults with
// faults, in spec order: fault i takes the place of the i-th scheduled
// one, which must not have fired and must fall at the same instant,
// so it runs exactly where a cluster built with faults would run it.
// Scheduled faults left over fire as no-ops. Forks of one prefix use
// it to run different fault sets from one shared history.
func (c *Cluster) SetFaults(faults []Fault) error {
	if len(faults) > len(c.faults) {
		return fmt.Errorf("runtime: %d faults for %d scheduled slots", len(faults), len(c.faults))
	}
	universe := c.spec.topology().Components()
	if fab := c.spec.Fabric(); fab != nil {
		universe = fab.Components()
	}
	for i, f := range faults {
		if int(f.Comp) < 0 || int(f.Comp) >= universe {
			return fmt.Errorf("runtime: fault %d component %d outside universe %d", i, int(f.Comp), universe)
		}
	}
	for i := range c.faults {
		fr := &c.faults[i]
		if fr.fired {
			return fmt.Errorf("runtime: fault slot %d fired at %v", i, fr.f.At)
		}
		if i < len(faults) && faults[i].At != fr.f.At {
			return fmt.Errorf("runtime: fault %d at %v, but its slot is at %v", i, faults[i].At, fr.f.At)
		}
	}
	for i := range c.faults {
		fr := &c.faults[i]
		fr.empty = i >= len(faults)
		if !fr.empty {
			fr.f = faults[i]
		}
	}
	c.spec.Faults = slices.Clone(faults)
	return nil
}

// Deliveries returns the times of every delivery from src to dst so
// far, in order. The slice is the cluster's own: read it before the
// simulation advances further, and do not modify it.
func (c *Cluster) Deliveries(src, dst int) []time.Duration {
	return c.deliveries[pair{from: src, to: dst}]
}

var _ simtime.EventCopier = forkCopier{}
