package runtime

import (
	"context"
	"fmt"
	"time"

	"drsnet/internal/chaos"
	"drsnet/internal/clock"
	"drsnet/internal/core"
	"drsnet/internal/invariant"
	"drsnet/internal/netsim"
	"drsnet/internal/parallel"
	"drsnet/internal/routing"
	"drsnet/internal/simtime"
	"drsnet/internal/trace"
	"drsnet/internal/transport"
)

// The simulator's adapters live on the simulator's side and satisfy
// the protocol seams structurally, so neither seam package imports a
// simulator; this is where the two meet. netsim.Transport passes dst
// through unmapped, which needs the two Broadcast constants equal.
var (
	_ transport.Transport = (*netsim.Transport)(nil)
	_ clock.Clock         = simtime.Clock{}
	_                     = [1]struct{}{}[transport.Broadcast-netsim.Broadcast]
)

// defaultPayload is the flow body when a spec leaves Payload nil.
var defaultPayload = []byte("flow")

// pair keys delivery accounting by (source, destination).
type pair struct{ from, to int }

// carrierSensor adapts one node's view of the network to the static
// fast-failover family's physical-layer carrier oracle.
type carrierSensor struct {
	net  netsim.Net
	node int
}

// CarrierUp implements failover.Sensor.
func (s carrierSensor) CarrierUp(peer, rail int) bool {
	return s.net.CarrierUp(s.node, peer, rail)
}

// Cluster is one assembled simulation: scheduler, network, and one
// router per node built from the spec's registered protocol. Build
// wires everything but starts nothing, so callers that need custom
// instrumentation (extra timers, transport endpoints) can interpose
// between Build and Start. Most callers just use Run.
//
// The canonical event-scheduling order — the determinism contract —
// is Start (routers in node order), ScheduleFlows (spec order),
// ScheduleFaults (the fail-stop Faults, then the Episodes, each in
// spec order), then RunUntil.
type Cluster struct {
	spec    ClusterSpec
	sched   *simtime.Scheduler
	net     netsim.Net
	builder Builder
	routers []routing.Router
	log     *trace.Log
	checker *invariant.Checker

	sent       []int
	deliveries map[pair][]time.Duration
	// flows and faults are the records the scheduled flow ticks and
	// fail-stop faults carry (see ScheduleFlows and ScheduleFaults).
	flows  []flowRec
	faults []faultRec

	// Crash–restart lifecycle state (allocated only when the spec's
	// Tunables.Lifecycle is on): the incarnation number each node's
	// next build gets, the checkpoint pending a warm restart, and the
	// repair and counter records of each node's dead incarnations (a
	// restart replaces the router, so Finish would otherwise lose them).
	incarnation  []uint32
	checkpoints  []*core.Checkpoint
	pastRepairs  [][]Repair
	pastCounters []map[string]int64
	// banked marks nodes whose current router's records were already
	// banked at crash time and not yet replaced by a restart; Finish
	// must not read the dead router again or a one-way crash would
	// double-count its repairs and counters.
	banked       []bool
	lifecycleErr error

	started         bool
	stopped         bool
	flowsScheduled  bool
	faultsScheduled bool

	// trs are a fork's transports, kept so that a fork into it reuses
	// them, and copier maps events while it is being forked into (see
	// Fork); both are unset on a cluster Build made. faultBuf is the
	// storage of the spec's fault list once SetFaults or Fork set it.
	trs      []*netsim.Transport
	faultBuf []Fault
	copier   forkCopier
}

// Build assembles a cluster from the spec: deterministic scheduler,
// packet-level network, and one router per node constructed by the
// spec's registered protocol builder. Routers are created in node
// order and are not started.
func Build(spec ClusterSpec) (*Cluster, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	builder, err := Lookup(spec.Protocol)
	if err != nil {
		return nil, err
	}
	for i, e := range spec.Episodes {
		if e.Kind == chaos.Skew {
			return nil, fmt.Errorf("runtime: %s: skew runs on the hermetic daemon cluster only", spec.entry(i))
		}
	}
	sched := simtime.NewScheduler()
	params := netsim.DefaultParams()
	params.LossRate = spec.LossRate
	params.Switched = spec.Switched
	var net netsim.Net
	if f := spec.Fabric(); f != nil {
		net, err = netsim.NewFabricNet(sched, f, params, spec.Seed)
	} else {
		net, err = netsim.New(sched, spec.topology(), params, spec.Seed)
	}
	if err != nil {
		return nil, err
	}
	log := spec.Trace
	if log == nil {
		log = trace.NewLog(0)
	}
	c := &Cluster{
		spec:       spec,
		sched:      sched,
		net:        net,
		builder:    builder,
		log:        log,
		sent:       make([]int, len(spec.Flows)),
		deliveries: make(map[pair][]time.Duration),
	}
	c.spec.Trace = log
	if inv := c.spec.Invariant; inv != nil {
		cfg := *inv
		if cfg.Reachable == nil {
			cfg.Reachable = net.Reachable
		}
		c.checker = invariant.New(cfg)
		net.SetTap(c.checker)
	}
	if c.spec.Tunables.Lifecycle {
		c.incarnation = make([]uint32, spec.Nodes)
		for i := range c.incarnation {
			c.incarnation[i] = 1
		}
		c.checkpoints = make([]*core.Checkpoint, spec.Nodes)
		c.pastRepairs = make([][]Repair, spec.Nodes)
		c.pastCounters = make([]map[string]int64, spec.Nodes)
		c.banked = make([]bool, spec.Nodes)
	}
	for node := 0; node < spec.Nodes; node++ {
		r, err := c.buildRouter(node)
		if err != nil {
			return nil, err
		}
		c.routers = append(c.routers, r)
	}
	return c, nil
}

// buildRouter constructs node's router from the spec's builder and
// wires its delivery callback. Under the crash–restart lifecycle the
// context carries the node's incarnation number and any checkpoint
// pending a warm restart.
func (c *Cluster) buildRouter(node int) (routing.Router, error) {
	ctx := BuildContext{
		Node:      node,
		Transport: netsim.NewTransport(c.net, node),
		Clock:     simtime.Clock{Sched: c.sched},
		Spec:      &c.spec,
		Carrier:   carrierSensor{net: c.net, node: node},
	}
	if c.spec.Tunables.Lifecycle {
		ctx.Incarnation = c.incarnation[node]
		ctx.Restore = c.checkpoints[node]
	}
	r, err := c.builder(ctx)
	if err != nil {
		return nil, fmt.Errorf("runtime: building %s router for node %d: %v", c.spec.Protocol, node, err)
	}
	c.wireDeliver(node, r)
	return r, nil
}

// wireDeliver installs node's delivery accounting on its router r.
func (c *Cluster) wireDeliver(node int, r routing.Router) {
	r.SetDeliverFunc(func(src int, data []byte) {
		at := c.sched.Now().Duration()
		k := pair{from: src, to: node}
		c.deliveries[k] = append(c.deliveries[k], at)
		if c.spec.OnDeliver != nil {
			c.spec.OnDeliver(at, src, node, data)
		}
	})
}

// Spec returns the normalized spec the cluster was built from.
func (c *Cluster) Spec() ClusterSpec { return c.spec }

// Scheduler exposes the simulation scheduler.
func (c *Cluster) Scheduler() *simtime.Scheduler { return c.sched }

// Network exposes the dual-rail network (fault injection,
// utilization). It returns nil when the spec selected a switched
// fabric topology — use Net, which serves every shape.
func (c *Cluster) Network() *netsim.Network {
	n, _ := c.net.(*netsim.Network)
	return n
}

// Net exposes the simulated network regardless of topology.
func (c *Cluster) Net() netsim.Net { return c.net }

// Clock returns the simulation clock routers were built with.
func (c *Cluster) Clock() clock.Clock { return simtime.Clock{Sched: c.sched} }

// Router returns node's router.
func (c *Cluster) Router(node int) routing.Router { return c.routers[node] }

// Daemon returns node's DRS daemon when the spec's protocol is the
// DRS (or any protocol whose router is a *core.Daemon).
func (c *Cluster) Daemon(node int) (*core.Daemon, bool) {
	d, ok := c.routers[node].(*core.Daemon)
	return d, ok
}

// Now returns the current simulated time.
func (c *Cluster) Now() time.Duration { return c.sched.Now().Duration() }

// Start starts every router in node order. It must be called exactly
// once, before any simulated time elapses under flows or faults.
func (c *Cluster) Start() error {
	if c.started {
		return fmt.Errorf("runtime: cluster started twice")
	}
	c.started = true
	for _, r := range c.routers {
		if err := r.Start(); err != nil {
			return err
		}
	}
	return nil
}

// ScheduleFlows installs the spec's application flows, in spec order.
// Each flow is one record that reschedules itself on the scheduler's
// handle-free path, so a tick allocates nothing.
func (c *Cluster) ScheduleFlows() {
	if c.flowsScheduled {
		return
	}
	c.flowsScheduled = true
	c.flows = make([]flowRec, len(c.spec.Flows))
	for i, f := range c.spec.Flows {
		fr := &c.flows[i]
		fr.c, fr.i, fr.f, fr.payload = c, i, f, f.Payload
		if fr.payload == nil {
			fr.payload = defaultPayload
		}
		start := f.Interval
		switch {
		case f.Start > 0:
			start = f.Start
		case f.Start == StartImmediately:
			start = 0
		}
		c.sched.AtCall(c.sched.Now().Add(start), runFlowTick, fr)
	}
}

// flowRec is one application flow's scheduled state: the event a tick
// carries.
type flowRec struct {
	c       *Cluster
	i       int
	f       Flow
	payload []byte
}

// runFlowTick sends one message of a flow and schedules the next.
func runFlowTick(arg any) {
	fr := arg.(*flowRec)
	c := fr.c
	if fr.f.Stop > 0 && c.sched.Now().Duration() >= fr.f.Stop {
		return
	}
	// A router legitimately returns ErrNoRoute during warm-up and
	// outages; the message is simply lost, exactly as an application
	// datagram would be. The application still tried, so the send
	// counts either way.
	_ = c.routers[fr.f.From].SendData(fr.f.To, fr.payload)
	c.sent[fr.i]++
	c.sched.AtCall(c.sched.Now().Add(fr.f.Interval), runFlowTick, fr)
}

// faultRec is one scheduled fail-stop fault: the event it carries. A
// slot emptied by SetFaults does nothing when it fires.
type faultRec struct {
	c     *Cluster
	i     int
	f     Fault
	empty bool
	fired bool
}

// runFault applies a scheduled fail-stop fault.
func runFault(arg any) {
	fr := arg.(*faultRec)
	fr.fired = true
	switch {
	case fr.empty:
	case fr.f.Restore:
		fr.c.net.Restore(fr.f.Comp)
	default:
		fr.c.net.Fail(fr.f.Comp)
	}
}

// ScheduleFaults installs the spec's component failure/repair script
// and then its fault episodes, each in spec order.
func (c *Cluster) ScheduleFaults() {
	if c.faultsScheduled {
		return
	}
	c.faultsScheduled = true
	c.faults = make([]faultRec, len(c.spec.Faults))
	for i, f := range c.spec.Faults {
		c.faults[i] = faultRec{c: c, i: i, f: f}
		c.sched.AtCall(simtime.Time(f.At), runFault, &c.faults[i])
	}
	if len(c.spec.Episodes) > 0 {
		chaos.Schedule(c.Clock(), c.spec.Episodes, simFaults{c.net, c})
	}
}

// simFaults applies fault episodes to the simulated cluster: component
// verbs act on the network, cuts on the dual-rail network (Normalize
// keeps partitions off fabrics), crashes on the cluster's lifecycle.
type simFaults struct {
	netsim.Net
	c *Cluster
}

func (f simFaults) Partition(src, dst, rail int) { f.c.Network().Partition(src, dst, rail) }
func (f simFaults) Heal(src, dst, rail int)      { f.c.Network().Heal(src, dst, rail) }
func (f simFaults) Crash(node int, warm bool)    { f.c.Crash(node, warm) }
func (f simFaults) Restart(node int)             { f.c.Restart(node) }

// SetSkew is unreachable: Build refuses skew episodes.
func (f simFaults) SetSkew(int, time.Duration) { panic("runtime: skew on the simulator") }

// Crash fail-stops node's routing process: the daemon is stopped and
// the network blackholes every frame the node sends or would receive,
// while its NICs stay electrically up. When warm, a checkpoint is
// taken first for the next incarnation to restore. Crash episodes
// call it.
func (c *Cluster) Crash(node int, warm bool) {
	if node < 0 || node >= len(c.routers) || c.stopped || !c.spec.Tunables.Lifecycle {
		return
	}
	if d, ok := c.Daemon(node); ok {
		if warm {
			c.checkpoints[node] = d.Checkpoint()
		}
		// The restart replaces the router; bank the dead incarnation's
		// repair records so Finish still reports them.
		c.pastRepairs[node] = append(c.pastRepairs[node], daemonRepairs(node, d)...)
	}
	// Bank the dead incarnation's counters too: Result.Counters must
	// cover the node's whole lifetime, not just its last life.
	c.pastCounters[node] = mergeCounters(c.pastCounters[node], c.routers[node].Metrics().Snapshot())
	c.banked[node] = true
	c.routers[node].Stop()
	c.net.FailNode(node)
	detail := "cold"
	if warm {
		detail = "warm checkpoint taken"
	}
	c.log.Append(trace.Event{
		At: c.Now(), Node: node, Kind: trace.KindNodeCrashed,
		Peer: -1, Rail: -1, Detail: detail,
	})
}

// Restart boots node's next incarnation: the network resumes carrying
// its frames, the incarnation number advances, and a fresh router is
// built — restoring the crash-time checkpoint when the episode was
// warm — and started. Crash episodes call it at their stop; build or
// start failures surface as Run's error.
func (c *Cluster) Restart(node int) {
	if node < 0 || node >= len(c.routers) || c.stopped || !c.spec.Tunables.Lifecycle {
		return
	}
	c.net.RestoreNode(node)
	c.incarnation[node]++
	warm := c.checkpoints[node] != nil
	detail := "cold start"
	if warm {
		detail = "warm start"
	}
	// Logged before the build so a warm restore's route-installed
	// events land after the restart marker in trace order.
	c.log.Append(trace.Event{
		At: c.Now(), Node: node, Kind: trace.KindNodeRestarted,
		Peer: -1, Rail: -1, Detail: detail,
	})
	r, err := c.buildRouter(node)
	c.checkpoints[node] = nil
	if err != nil {
		if c.lifecycleErr == nil {
			c.lifecycleErr = fmt.Errorf("runtime: restarting node %d: %v", node, err)
		}
		return
	}
	c.routers[node] = r
	c.banked[node] = false
	if err := r.Start(); err != nil && c.lifecycleErr == nil {
		c.lifecycleErr = fmt.Errorf("runtime: restarting node %d: %v", node, err)
	}
}

// LifecycleErr reports the first crash–restart failure of the run, if
// any (Run surfaces it; Build-and-drive callers check it themselves).
func (c *Cluster) LifecycleErr() error { return c.lifecycleErr }

// RunUntil advances the simulation to absolute time t.
func (c *Cluster) RunUntil(t time.Duration) {
	c.sched.RunUntil(simtime.Time(t))
}

// RunFor advances the simulation by d.
func (c *Cluster) RunFor(d time.Duration) {
	c.sched.RunUntil(c.sched.Now().Add(d))
}

// StopRouters halts every router. The cluster can still be inspected
// but no longer routes.
func (c *Cluster) StopRouters() {
	if c.stopped {
		return
	}
	c.stopped = true
	for _, r := range c.routers {
		r.Stop()
	}
}

// FlowResult is one flow's delivery accounting.
type FlowResult struct {
	Flow Flow
	// Sent counts send attempts (including ones the router refused).
	Sent int
	// Delivered counts messages delivered for the flow's (from, to)
	// pair. Flows sharing a pair share the count.
	Delivered int
	// Deliveries are the delivery timestamps for the flow's pair.
	Deliveries []time.Duration
}

// Repair records one completed DRS route repair.
type Repair struct {
	Node, Peer int
	// LostAt and RepairedAt bound the repair.
	LostAt, RepairedAt time.Duration
	// Kind, Rail and Via describe the replacement route.
	Kind      string
	Rail, Via int
}

// Latency returns the repair duration.
func (r Repair) Latency() time.Duration { return r.RepairedAt - r.LostAt }

// Result is the outcome of one spec run.
type Result struct {
	Spec ClusterSpec
	// Flows reports per-flow accounting, in spec order.
	Flows []FlowResult
	// Repairs lists every completed DRS route repair, in node order
	// (empty for protocols without repair accounting).
	Repairs []Repair
	// Counters holds each node's protocol counter totals, indexed by
	// node. Under the crash–restart lifecycle the totals span every
	// incarnation (dead lives are banked at crash time), so per-node
	// control-traffic accounting — the overload campaign's core
	// metric — survives restarts.
	Counters []map[string]int64
	// Utilization is the fraction of each rail's capacity consumed.
	Utilization []float64
	// Trace is the protocol event log of the run.
	Trace *trace.Log
	// Invariant is the forwarding-invariant verdict, present when the
	// spec enabled the checker.
	Invariant *invariant.Report
}

// daemonRepairs converts a daemon's repair records into the runtime's
// Repair form.
func daemonRepairs(node int, d *core.Daemon) []Repair {
	reps := d.Repairs()
	out := make([]Repair, 0, len(reps))
	for _, rep := range reps {
		out = append(out, Repair{
			Node:       node,
			Peer:       rep.Peer,
			LostAt:     rep.LostAt,
			RepairedAt: rep.RepairedAt,
			Kind:       rep.Route.Kind.String(),
			Rail:       rep.Route.Rail,
			Via:        rep.Route.Via,
		})
	}
	return out
}

// mergeCounters adds src's counts into dst (allocating dst when nil)
// and returns it.
func mergeCounters(dst, src map[string]int64) map[string]int64 {
	if dst == nil {
		dst = make(map[string]int64, len(src))
	}
	for name, v := range src {
		dst[name] += v
	}
	return dst
}

// cloneCounters copies a counter map (nil stays nil).
func cloneCounters(src map[string]int64) map[string]int64 {
	if src == nil {
		return nil
	}
	dst := make(map[string]int64, len(src))
	for name, v := range src {
		dst[name] = v
	}
	return dst
}

// Finish collects the run's outcome. Call after the simulation has
// been advanced (and, normally, after StopRouters).
func (c *Cluster) Finish() *Result {
	res := &Result{Spec: c.spec, Trace: c.log}
	if c.checker != nil {
		res.Invariant = c.checker.Finalize(c.Now())
	}
	for i, f := range c.spec.Flows {
		del := c.deliveries[pair{f.From, f.To}]
		res.Flows = append(res.Flows, FlowResult{
			Flow:       f,
			Sent:       c.sent[i],
			Delivered:  len(del),
			Deliveries: append([]time.Duration(nil), del...),
		})
	}
	res.Counters = make([]map[string]int64, len(c.routers))
	for node := range c.routers {
		if c.pastRepairs != nil {
			res.Repairs = append(res.Repairs, c.pastRepairs[node]...)
		}
		var past map[string]int64
		if c.pastCounters != nil {
			past = c.pastCounters[node]
		}
		res.Counters[node] = cloneCounters(past)
		if c.banked != nil && c.banked[node] {
			// The node died without a restart: its records were banked
			// at crash time, and reading the dead router again would
			// double-count them.
			if res.Counters[node] == nil {
				res.Counters[node] = map[string]int64{}
			}
			continue
		}
		res.Counters[node] = mergeCounters(res.Counters[node], c.routers[node].Metrics().Snapshot())
		d, ok := c.Daemon(node)
		if !ok {
			continue
		}
		res.Repairs = append(res.Repairs, daemonRepairs(node, d)...)
	}
	for rail := 0; rail < c.spec.Rails; rail++ {
		res.Utilization = append(res.Utilization, c.net.Utilization(rail))
	}
	return res
}

// Run executes one spec end to end: Build, Start, flows, faults,
// advance to the spec's Duration, stop, collect. The event-scheduling
// order is fixed, so a spec always produces the same Result.
func Run(spec ClusterSpec) (*Result, error) {
	if spec.Duration <= 0 {
		return nil, fmt.Errorf("runtime: spec duration must be positive")
	}
	c, err := Build(spec)
	if err != nil {
		return nil, err
	}
	if err := c.Start(); err != nil {
		return nil, err
	}
	c.ScheduleFlows()
	c.ScheduleFaults()
	c.RunUntil(spec.Duration)
	c.StopRouters()
	if err := c.LifecycleErr(); err != nil {
		return nil, err
	}
	return c.Finish(), nil
}

// RunMany executes every spec, sharded over the parallel sweep engine
// (workers goroutines; 0 = GOMAXPROCS). Each spec runs in its own
// private simulator and its Result lands in its own slot, so the
// output is bit-identical for every worker count. A nil ctx means
// context.Background().
func RunMany(ctx context.Context, specs []ClusterSpec, workers int) ([]*Result, error) {
	return parallel.Map(ctx, workers, len(specs), func(i int) (*Result, error) {
		return Run(specs[i])
	})
}
