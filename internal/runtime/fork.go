package runtime

import (
	"fmt"
	"time"

	"drsnet/internal/chaos"
	"drsnet/internal/core"
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
// With into nil the copy is new. Otherwise into must be a spent fork:
// a cluster Fork returned, of c's size, whose routers were stopped.
// Fork then overwrites it in place and returns it, reusing the storage
// of every layer, so forking one prefix over and over into the fork
// before allocates nothing once the layers have grown to size. into's
// previous run is gone, its Result's trace with it, and a Fork that
// fails after the checks leaves into unusable.
//
// Each layer copies its own state and the records its pending events
// carry: the scheduler its pending set, the network its fault state,
// counters and in-flight frames, each DRS daemon its tables, counters,
// probe rounds and adaptive-RTO deadlines, and the cluster its flows,
// faults, deliveries and trace. What a layer cannot copy Fork refuses,
// naming it: a fabric, a protocol other than the DRS, an invariant
// checker, chaos episodes and the crash–restart lifecycle here; a
// switched network and an impairment delay in the network; staggered
// sends, the overload layer and a pending discovery timeout in the
// daemons; and any other pending closure in the scheduler.
func (c *Cluster) Fork(into *Cluster) (*Cluster, error) {
	if err := c.forkable(); err != nil {
		return nil, err
	}
	f := into
	if f == nil {
		f = &Cluster{sched: simtime.NewScheduler(), deliveries: make(map[pair][]time.Duration, len(c.deliveries))}
	} else if err := c.spent(f); err != nil {
		return nil, err
	}
	// Keep only into's storage, so that nothing of its previous run
	// carries over that a new copy would not have.
	*f = Cluster{
		sched: f.sched, net: f.net, routers: f.routers, log: f.log,
		sent: f.sent, deliveries: f.deliveries, flows: f.flows, faults: f.faults,
		trs: f.trs, faultBuf: f.faultBuf,
	}
	net, err := c.Network().Fork(f.Network(), f.sched)
	if err != nil {
		return nil, fmt.Errorf("runtime: %v", err)
	}
	f.spec, f.net, f.builder = c.spec, net, c.builder
	f.log = c.log.Fork(f.log)
	f.spec.Trace = f.log
	f.setSpecFaults(c.spec.Faults)
	f.sent = append(f.sent[:0], c.sent...)
	for k := range f.deliveries {
		if _, ok := c.deliveries[k]; !ok {
			delete(f.deliveries, k)
		}
	}
	for k, del := range c.deliveries {
		// As much room as c's lists, so the copy's next deliveries
		// allocate as c's would.
		fd := f.deliveries[k][:0]
		if cap(fd) < cap(del) {
			fd = make([]time.Duration, 0, cap(del))
		}
		f.deliveries[k] = append(fd, del...)
	}
	f.flows = append(f.flows[:0], c.flows...)
	for i := range f.flows {
		f.flows[i].c = f
	}
	f.faults = append(f.faults[:0], c.faults...)
	for i := range f.faults {
		f.faults[i].c = f
	}
	f.started, f.stopped = c.started, c.stopped
	f.flowsScheduled, f.faultsScheduled = c.flowsScheduled, c.faultsScheduled
	if into == nil {
		f.routers = make([]routing.Router, len(c.routers))
		f.trs = make([]*netsim.Transport, len(c.routers))
		for node := range f.trs {
			f.trs[node] = netsim.NewTransport(net, node)
		}
	}
	for node := range c.routers {
		d, _ := c.Daemon(node)
		dd, _ := f.routers[node].(*core.Daemon)
		r, err := d.Fork(dd, f.trs[node], simtime.Clock{Sched: f.sched}, f.log)
		if err != nil {
			return nil, fmt.Errorf("runtime: %v", err)
		}
		if into == nil {
			f.wireDeliver(node, r)
		}
		f.routers[node] = r
	}
	f.copier = forkCopier{src: c, dst: f}
	err = f.sched.ForkFrom(c.sched, &f.copier)
	f.copier = forkCopier{}
	if err != nil {
		return nil, fmt.Errorf("runtime: %v", err)
	}
	return f, nil
}

// spent refuses a destination for Fork that is not a spent fork of
// c's size.
func (c *Cluster) spent(into *Cluster) error {
	switch {
	case into == c:
		return fmt.Errorf("runtime: cannot fork a cluster into itself")
	case into.trs == nil:
		return fmt.Errorf("runtime: cannot fork into a cluster Fork did not return")
	case !into.stopped:
		return fmt.Errorf("runtime: cannot fork into a cluster whose routers run")
	case len(into.routers) != len(c.routers):
		return fmt.Errorf("runtime: cannot fork %d nodes into a cluster of %d", len(c.routers), len(into.routers))
	}
	return nil
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
// the cluster's, probe rounds and adaptive deadlines the daemons'.
func (fc *forkCopier) CopyArg(arg any) (any, error) {
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
func (fc *forkCopier) CopyTimer(t *simtime.Timer) (*simtime.Timer, error) {
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
	c.setSpecFaults(faults)
	return nil
}

// setSpecFaults makes c's spec list a copy of faults, in the storage
// c keeps for it.
func (c *Cluster) setSpecFaults(faults []Fault) {
	c.spec.Faults = nil
	if faults == nil {
		return
	}
	if c.faultBuf == nil {
		c.faultBuf = make([]Fault, 0, len(faults))
	}
	c.faultBuf = append(c.faultBuf[:0], faults...)
	c.spec.Faults = c.faultBuf[:len(faults):len(faults)]
}

// Deliveries returns the times of every delivery from src to dst so
// far, in order. The slice is the cluster's own: read it before the
// simulation advances further, and do not modify it.
func (c *Cluster) Deliveries(src, dst int) []time.Duration {
	return c.deliveries[pair{from: src, to: dst}]
}

var _ simtime.EventCopier = (*forkCopier)(nil)
