package main

import (
	"fmt"
	"math"
	goruntime "runtime"
	"sort"
	"time"

	"drsnet/internal/clock"
	"drsnet/internal/conn"
	"drsnet/internal/core"
	"drsnet/internal/dataplane"
	"drsnet/internal/experiments"
	"drsnet/internal/icmp"
	"drsnet/internal/linkmon"
	"drsnet/internal/metrics"
	"drsnet/internal/montecarlo"
	"drsnet/internal/netsim"
	"drsnet/internal/parallel"
	"drsnet/internal/rng"
	"drsnet/internal/routetable"
	"drsnet/internal/routing/wire"
	"drsnet/internal/runtime"
	"drsnet/internal/simtime"
	"drsnet/internal/survival"
	"drsnet/internal/topology"
	"drsnet/internal/transport"
)

// layerMetric declares one per-layer metric. Ladder rows are
// fixed-iteration microbenchmarks of a layer's exported calls; the
// others are read at the layer boundary during a traced run and are 0
// on a workload that does not cross that layer.
type layerMetric struct {
	name   string
	unit   string
	higher bool
}

var perLayer = []layerMetric{
	{"simtime.hold_ns_1k", "ns", false},
	{"simtime.hold_ns_200k", "ns", false},
	{"simtime.hold_ns_1m", "ns", false},
	{"simtime.timer_cancel_ns", "ns", false},
	{"simtime.events", "count", false},
	{"simtime.ns_per_event", "ns", false},
	{"simtime.pending_max", "count", false},
	{"netsim.network_unicast_ns", "ns", false},
	{"netsim.network_broadcast_us_n128", "us", false},
	{"netsim.fabric_hop_ns_k12", "ns", false},
	{"netsim.fabric_send_allocs", "count", false},
	{"netsim.frames_sent", "count", false},
	{"netsim.frames_delivered", "count", true},
	{"netsim.frames_dropped", "count", false},
	{"netsim.events_per_frame", "count", false},
	{"netsim.rail_utilization", "1", false},
	{"runtime.build_us_n12", "us", false},
	{"runtime.build_ms_n128", "ms", false},
	{"runtime.build_ms_k12", "ms", false},
	{"runtime.finish_ms_n128", "ms", false},
	{"runtime.build_s", "s", false},
	{"runtime.start_s", "s", false},
	{"runtime.advance_s", "s", false},
	{"runtime.finish_s", "s", false},
	{"core.probe_round_us_n10", "us", false},
	{"core.probe_round_allocs", "count", false},
	{"core.send_direct_ns", "ns", false},
	{"core.send_direct_allocs", "count", false},
	{"core.relay_forward_ns", "ns", false},
	{"core.relay_forward_allocs", "count", false},
	{"core.query_offer_ns", "ns", false},
	{"core.query_offer_allocs", "count", false},
	{"core.probes_sent", "count", false},
	{"core.probe_replies", "count", true},
	{"core.data_sent", "count", false},
	{"core.data_delivered", "count", true},
	{"core.data_forwarded", "count", false},
	{"core.repairs", "count", false},
	{"linkmon.probe_confirm_ns", "ns", false},
	{"linkmon.deadline_sweep_us_n128", "us", false},
	{"routetable.discovery_ns", "ns", false},
	{"routetable.seen_ns", "ns", false},
	{"dataplane.frame_classify_ns", "ns", false},
	{"dataplane.ctrlqueue_ns", "ns", false},
	{"wire.data_ns", "ns", false},
	{"wire.query_ns", "ns", false},
	{"wire.offer_ns", "ns", false},
	{"wire.envelope_ns", "ns", false},
	{"wire.data_allocs", "count", false},
	{"icmp.echo_ns", "ns", false},
	{"icmp.echo_allocs", "count", false},
	{"metrics.lookup_inc_ns", "ns", false},
	{"metrics.handle_inc_ns", "ns", false},
	{"transport.mem_frame_ns", "ns", false},
	{"transport.faulty_frame_ns", "ns", false},
	{"transport.udp_frame_us", "us", false},
	{"transport.udp_frame_allocs", "count", false},
	{"clock.manual_timer_ns", "ns", false},
	{"clock.wall_dispatch_us", "us", false},
	{"nemesis.generate_us", "us", false},
	{"nemesis.run_ms_p50", "ms", false},
	{"nemesis.run_ms_max", "ms", false},
	{"nemesis.violations", "count", false},
	{"experiments.coverage_scenarios", "count", true},
	{"experiments.coverage_inconsistent", "count", false},
	{"conn.dual_eval_ns", "ns", false},
	{"conn.fabric_eval_us_k36", "us", false},
	{"rng.uint64_ns", "ns", false},
	{"rng.samplek_ns", "ns", false},
	{"topology.fattree_build_ms_k36", "ms", false},
	{"montecarlo.dual63_trials_per_s", "1/s", true},
	{"montecarlo.dual63_abs_err", "1", false},
	{"survival.figure2_cold_ms", "ms", false},
	{"survival.figure2_warm_us", "us", false},
	{"parallel.map_item_ns", "ns", false},
	{"parallel.coverage_speedup_w2", "x", true},
	{"parallel.mc_dual_speedup_w2", "x", true},
	{"parallel.mc_fabric_speedup_w2", "x", true},
	{"live.latency_p50_us", "us", false},
	{"live.latency_p99_us", "us", false},
	{"run.wall_s", "s", false},
	{"run.alloc_mb", "MB", false},
	{"run.gc_cycles", "count", false},
	{"run.gc_pause_ms", "ms", false},
	{"run.trace_overhead", "1", false},
	{"run.cpu_share.simtime", "1", false},
	{"run.cpu_share.netsim", "1", false},
	{"run.cpu_share.core", "1", false},
	{"run.cpu_share.linkmon", "1", false},
	{"run.cpu_share.wire", "1", false},
	{"run.cpu_share.icmp", "1", false},
	{"run.cpu_share.metrics", "1", false},
	{"run.cpu_share.transport", "1", false},
	{"run.cpu_share.clock", "1", false},
	{"run.cpu_share.gc", "1", false},
	{"run.cpu_share.other", "1", false},
}

// ladder runs the microbenchmarks. Each timing is the least of a few
// rounds of a fixed number of calls; each _allocs row is an exact count
// per call.
type ladder struct {
	div int // divides every iteration count; above 1 in the package test
	out map[string]float64
}

// runLadder measures every ladder row. It fails when a cross-check on
// the layers' outputs does.
func runLadder(sz sizes) (map[string]float64, error) {
	l := &ladder{div: sz.ladderDiv, out: make(map[string]float64)}
	steps := []func() error{
		l.simtime, l.netsim, l.runtime, l.core, l.linkmon, l.routetable, l.dataplane,
		l.wireICMP, l.metrics, l.transport, l.clock, l.analytic, l.parallel,
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return nil, err
		}
	}
	return l.out, nil
}

// n scales an iteration count to the ladder's size.
func (l *ladder) n(iters int) int {
	if iters /= l.div; iters < 1 {
		return 1
	}
	return iters
}

// pick chooses a problem size: full for the benchmark, small for the
// package test.
func (l *ladder) pick(full, small int) int {
	if l.div > 1 {
		return small
	}
	return full
}

// best is the least duration of rounds calls to fn (one in the package
// test).
func (l *ladder) best(rounds int, fn func() time.Duration) time.Duration {
	if l.div > 1 {
		rounds = 1
	}
	least := time.Duration(math.MaxInt64)
	for i := 0; i < rounds; i++ {
		if d := fn(); d < least {
			least = d
		}
	}
	return least
}

// perOp times iters calls of op, best of five rounds, in ns per call.
func (l *ladder) perOp(iters int, op func(i int)) float64 {
	iters = l.n(iters)
	d := l.best(5, func() time.Duration {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			op(i)
		}
		return time.Since(t0)
	})
	return float64(d) / float64(iters)
}

// allocsPerOp counts the mallocs of iters calls of op, per call.
func (l *ladder) allocsPerOp(iters int, op func(i int)) float64 {
	iters = l.n(iters)
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	for i := 0; i < iters; i++ {
		op(i)
	}
	goruntime.ReadMemStats(&m1)
	return math.Round(float64(m1.Mallocs-m0.Mallocs)/float64(iters)*100) / 100
}

// since runs fn and returns how long it took.
func since(fn func()) time.Duration {
	t0 := time.Now()
	fn()
	return time.Since(t0)
}

// ---- simtime --------------------------------------------------------

// fabricDelays are the fixed latencies a fabric's hop events cluster
// on: propagation, a minimum frame's serialization, and their sums.
var fabricDelays = [4]time.Duration{5 * time.Microsecond, 6720 * time.Nanosecond, 11720 * time.Nanosecond, 23440 * time.Nanosecond}

// hold is the classic hold model: the queue stays at depth events, and
// each step pops one and pushes its successor.
func (l *ladder) hold(depth, steps int) float64 {
	s := simtime.NewScheduler()
	r := rng.New(1)
	var again func(any)
	again = func(any) { s.AtCall(s.Now().Add(fabricDelays[r.Uint64()&3]), again, nil) }
	for i := 0; i < depth; i++ {
		s.AtCall(simtime.Time(r.Uint64n(uint64(time.Millisecond))), again, nil)
	}
	steps = l.n(steps)
	d := l.best(3, func() time.Duration { return since(func() { s.Run(steps) }) })
	return float64(d) / float64(steps)
}

func (l *ladder) simtime() error {
	l.out["simtime.hold_ns_1k"] = l.hold(1000, 1000000)
	l.out["simtime.hold_ns_200k"] = l.hold(l.pick(200000, 20000), 500000)
	l.out["simtime.hold_ns_1m"] = l.hold(l.pick(1000000, 50000), 500000)

	s := simtime.NewScheduler()
	nop := func() {}
	const batch = 1000
	l.out["simtime.timer_cancel_ns"] = l.perOp(1000, func(int) {
		for i := 0; i < batch; i++ {
			s.After(time.Millisecond, nop).Cancel()
		}
		s.Run(0)
	}) / batch
	return nil
}

// ---- netsim ---------------------------------------------------------

func (l *ladder) netsim() error {
	payload := make([]byte, 64)
	drop := func(netsim.Frame) {}

	sched := simtime.NewScheduler()
	nodes := l.pick(128, 16)
	net, err := netsim.New(sched, topology.Dual(nodes), netsim.DefaultParams(), 1)
	if err != nil {
		return err
	}
	for n := 0; n < nodes; n++ {
		net.SetHandler(n, drop)
	}
	var sendErr error
	l.out["netsim.network_unicast_ns"] = l.perOp(200000, func(int) {
		if err := net.Send(0, 0, 1, payload); err != nil {
			sendErr = err
		}
		sched.Run(0)
	})
	l.out["netsim.network_broadcast_us_n128"] = l.perOp(5000, func(int) {
		if err := net.Send(0, 0, netsim.Broadcast, payload); err != nil {
			sendErr = err
		}
		sched.Run(0)
	}) / 1e3

	fab, err := topology.FatTree(l.pick(12, 4))
	if err != nil {
		return err
	}
	fsched := simtime.NewScheduler()
	fnet, err := netsim.NewFabricNet(fsched, fab, netsim.DefaultParams(), 1)
	if err != nil {
		return err
	}
	last := fab.Hosts() - 1
	fnet.SetHandler(last, drop)
	send := func(int) {
		if err := fnet.Send(0, 0, last, payload); err != nil {
			sendErr = err
		}
		fsched.Run(0)
	}
	// Host 0 to the last host crosses six links: up through edge,
	// aggregation and core, and down again.
	const interPodLinks = 6
	l.out["netsim.fabric_hop_ns_k12"] = l.perOp(100000, send) / interPodLinks
	l.out["netsim.fabric_send_allocs"] = l.allocsPerOp(10000, send)
	return sendErr
}

// ---- runtime and core, through runtime.Build -------------------------

// started builds and starts a dual-rail DRS cluster of n nodes and
// advances it by settle.
func started(n int, settle time.Duration) (*runtime.Cluster, error) {
	c, err := runtime.Build(runtime.ClusterSpec{Nodes: n})
	if err != nil {
		return nil, err
	}
	if err := c.Start(); err != nil {
		return nil, err
	}
	c.RunFor(settle)
	return c, nil
}

func (l *ladder) runtime() error {
	var buildErr error
	build := func(spec runtime.ClusterSpec) func(int) {
		return func(int) {
			c, err := runtime.Build(spec)
			if err == nil {
				err = c.Start()
			}
			if err != nil {
				buildErr = err
			}
		}
	}
	l.out["runtime.build_us_n12"] = l.perOp(200, build(runtime.ClusterSpec{Nodes: 12})) / 1e3
	n128 := l.pick(128, 16)
	l.out["runtime.build_ms_n128"] = l.perOp(4, build(runtime.ClusterSpec{Nodes: n128})) / 1e6
	fat := runtime.ClusterSpec{Topology: runtime.TopologySpec{Kind: "fatTree", K: l.pick(12, 4)}}
	l.out["runtime.build_ms_k12"] = float64(l.best(2, func() time.Duration {
		return since(func() { build(fat)(0) })
	})) / 1e6
	if buildErr != nil {
		return buildErr
	}

	finish := l.best(3, func() time.Duration {
		c, err := started(n128, 2*time.Second)
		if err != nil {
			buildErr = err
			return 0
		}
		c.StopRouters()
		return since(func() { c.Finish() })
	})
	l.out["runtime.finish_ms_n128"] = float64(finish) / 1e6
	return buildErr
}

// core re-expresses internal/core's four gated benchmarks through the
// public API: the cluster comes from runtime.Build, not from the
// package's own test helper.
func (l *ladder) core() error {
	payload := []byte("benchmark payload")
	var opErr error
	// Each round runs on a fresh cluster and makes 3000 calls: enough to
	// amortise the cold start, and short of the 4096 distinct queries
	// past which routetable's dedupe cache is swept on every insertion,
	// which is another regime (some 9 us a query).
	calls := l.n(3000)
	both := func(name, unit string, scale float64, prepare func() (func(), error)) error {
		var err error
		var allocs float64
		d := l.best(5, func() time.Duration {
			op, perr := prepare()
			if perr != nil {
				err = perr
				return 0
			}
			var m0, m1 goruntime.MemStats
			goruntime.ReadMemStats(&m0)
			d := since(func() {
				for i := 0; i < calls; i++ {
					op()
				}
			})
			goruntime.ReadMemStats(&m1)
			allocs = float64(m1.Mallocs-m0.Mallocs) / float64(calls)
			return d
		})
		l.out["core."+name+"_"+unit] = float64(d) / float64(calls) / scale
		l.out["core."+name+"_allocs"] = math.Round(allocs*100) / 100
		return err
	}
	sendTo1 := func(c *runtime.Cluster) func() {
		d, _ := c.Daemon(0)
		return func() {
			if err := d.SendData(1, payload); err != nil {
				opErr = err
			}
			c.RunFor(50 * time.Microsecond)
		}
	}

	err := both("probe_round", "us_n10", 1e3, func() (func(), error) {
		c, err := started(10, 2*time.Second)
		if err != nil {
			return nil, err
		}
		interval := c.Spec().Tunables.ProbeInterval
		return func() { c.RunFor(interval) }, nil
	})
	if err != nil {
		return err
	}
	err = both("send_direct", "ns", 1, func() (func(), error) {
		c, err := started(4, 2*time.Second)
		if err != nil {
			return nil, err
		}
		return sendTo1(c), nil
	})
	if err != nil {
		return err
	}
	// After a cross-rail failure every 0→1 datagram crosses node 2's
	// forwarding code.
	err = both("relay_forward", "ns", 1, func() (func(), error) {
		c, err := started(3, 3*time.Second)
		if err != nil {
			return nil, err
		}
		cl := topology.Dual(3)
		c.Net().Fail(cl.NIC(0, 0))
		c.Net().Fail(cl.NIC(1, 1))
		tun := c.Spec().Tunables
		c.RunFor(time.Duration(tun.MissThreshold+3) * tun.ProbeInterval)
		if d, _ := c.Daemon(0); d.RouteTo(1).Kind != core.RouteRelay {
			return nil, fmt.Errorf("ladder: route 0→1 is %+v, want a relay", d.RouteTo(1))
		}
		return sendTo1(c), nil
	})
	if err != nil {
		return err
	}
	// Node 0 hears a stream of distinct route queries and answers each
	// with an offer.
	err = both("query_offer", "ns", 1, func() (func(), error) {
		c, err := started(3, 2*time.Second)
		if err != nil {
			return nil, err
		}
		seq := uint32(0)
		return func() {
			seq++
			q := wire.Query{Origin: 1, Target: 2, Seq: seq, TTL: 1}
			if err := c.Net().Send(1, 0, 0, wire.Envelope(wire.ProtoControl, wire.MarshalQuery(q))); err != nil {
				opErr = err
			}
			c.RunFor(time.Millisecond)
		}, nil
	})
	if err != nil {
		return err
	}
	return opErr
}

// ---- linkmon, routetable, dataplane ---------------------------------

func (l *ladder) linkmon() error {
	const nodes, rails = 128, 2
	t := linkmon.NewTable(nodes, rails)
	for peer := 1; peer < nodes; peer++ {
		t.Add(peer)
	}
	paths := float64((nodes - 1) * rails)
	l.out["linkmon.probe_confirm_ns"] = l.perOp(2000, func(int) {
		for peer := 1; peer < nodes; peer++ {
			for rail := 0; rail < rails; rail++ {
				seq, _ := t.BeginProbe(peer, rail, 2)
				t.Confirm(peer, rail, seq)
			}
		}
	}) / paths

	d := linkmon.NewDeadlines(nodes, rails)
	now := time.Duration(0)
	l.out["linkmon.deadline_sweep_us_n128"] = l.perOp(5000, func(int) {
		now += time.Second
		for peer := 1; peer < nodes; peer++ {
			for rail := 0; rail < rails; rail++ {
				d.Refresh(peer, rail, now, now+time.Second)
			}
		}
		d.Sweep(now, nil)
	}) / 1e3
	return nil
}

func (l *ladder) routetable() error {
	relay := routetable.Route{Kind: routetable.Relay, Via: 2}
	var t *routetable.Table
	iters := l.n(100000)
	l.out["routetable.discovery_ns"] = float64(l.best(5, func() time.Duration {
		t = routetable.New(128) // Install keeps every repair, so start afresh
		return since(func() {
			for i := 0; i < iters; i++ {
				dst := 1 + i%127
				now := time.Duration(i) * time.Millisecond
				t.Begin(dst, now)
				t.Install(dst, relay, now)
				t.Drop(dst)
			}
		})
	})) / float64(iters)

	// Distinct queries one millisecond apart: each is a miss, and past
	// 4096 entries each insertion collects the ones older than a second.
	t = routetable.New(128)
	calls := 0
	l.out["routetable.seen_ns"] = l.perOp(200000, func(int) {
		calls++
		t.SeenRecently(1, uint32(calls), time.Duration(calls)*time.Millisecond, time.Second)
	})
	return nil
}

func (l *ladder) dataplane() error {
	payload := make([]byte, 64)
	tx := dataplane.New(0, 4, 4, 16, nil)
	rx := dataplane.New(1, 4, 4, 16, nil)
	var buf []byte
	verdicts := 0
	l.out["dataplane.frame_classify_ns"] = l.perOp(1000000, func(int) {
		buf = tx.NewFrameInto(buf, 1, payload)
		if _, _, action := rx.Classify(buf[1:]); action == dataplane.Deliver {
			verdicts++
		}
	})
	if verdicts == 0 {
		return fmt.Errorf("ladder: dataplane delivered nothing")
	}

	cq := dataplane.NewControlQueue(64, nil, [dataplane.NumClasses]*metrics.Counter{})
	item := func(i int) dataplane.ControlItem {
		return dataplane.ControlItem{Class: dataplane.Class(i % int(dataplane.NumClasses)), Peer: i % 16}
	}
	for i := 0; i < 32; i++ {
		cq.Push(item(i))
	}
	l.out["dataplane.ctrlqueue_ns"] = l.perOp(1000000, func(i int) {
		cq.Push(item(i))
		cq.Pop()
	})
	return nil
}

// ---- wire, icmp, metrics --------------------------------------------

func (l *ladder) wireICMP() error {
	payload := make([]byte, 64)
	var codecErr error
	note := func(err error) {
		if err != nil {
			codecErr = err
		}
	}
	data := func(i int) {
		_, _, err := wire.UnmarshalData(wire.MarshalData(wire.DataHeader{Origin: 1, Final: 2, TTL: 4, Seq: uint32(i)}, payload))
		note(err)
	}
	l.out["wire.data_ns"] = l.perOp(1000000, data)
	l.out["wire.data_allocs"] = l.allocsPerOp(10000, data)
	l.out["wire.query_ns"] = l.perOp(1000000, func(i int) {
		_, err := wire.UnmarshalQuery(wire.MarshalQuery(wire.Query{Origin: 1, Target: 2, Seq: uint32(i), TTL: 1}))
		note(err)
	})
	l.out["wire.offer_ns"] = l.perOp(1000000, func(i int) {
		_, err := wire.UnmarshalOffer(wire.MarshalOffer(wire.Offer{Origin: 1, Target: 2, Seq: uint32(i), Relay: 3}))
		note(err)
	})
	l.out["wire.envelope_ns"] = l.perOp(1000000, func(int) {
		_, _, err := wire.SplitEnvelope(wire.Envelope(wire.ProtoData, payload))
		note(err)
	})

	echo := func(i int) {
		req, err := icmp.Unmarshal(icmp.Echo{Request: true, ID: 7, Seq: uint16(i), Data: payload[:8]}.Marshal())
		note(err)
		rep, err := icmp.Reply(req)
		note(err)
		_, err = icmp.Unmarshal(rep.Marshal())
		note(err)
	}
	l.out["icmp.echo_ns"] = l.perOp(1000000, echo)
	l.out["icmp.echo_allocs"] = l.allocsPerOp(10000, echo)
	return codecErr
}

func (l *ladder) metrics() error {
	set := metrics.NewSet()
	names := make([]string, 60)
	for i := range names {
		names[i] = fmt.Sprintf("layer.counter_%02d", i)
	}
	l.out["metrics.lookup_inc_ns"] = l.perOp(2000000, func(i int) { set.Counter(names[i%len(names)]).Inc() })
	held := set.Counter(names[0])
	l.out["metrics.handle_inc_ns"] = l.perOp(2000000, func(int) { held.Inc() })
	return nil
}

// ---- transport and clock --------------------------------------------

func (l *ladder) transport() error {
	payload := make([]byte, 64)
	const latency = 200 * time.Microsecond
	var sendErr error
	received := 0
	count := func(rail, src int, body []byte) { received++ }

	clk := clock.NewManual()
	mem := transport.NewMem(2, 2, clk, latency)
	mem.Node(1).SetReceiver(count)
	l.out["transport.mem_frame_ns"] = l.perOp(500000, func(int) {
		if err := mem.Node(0).Send(0, 1, payload); err != nil {
			sendErr = err
		}
		clk.Advance(latency)
	})

	clk = clock.NewManual()
	mem = transport.NewMem(2, 2, clk, latency)
	faults := transport.NewFaults(1, clk)
	tx, rx := faults.Wrap(mem.Node(0)), faults.Wrap(mem.Node(1))
	rx.SetReceiver(count)
	l.out["transport.faulty_frame_ns"] = l.perOp(500000, func(int) {
		if err := tx.Send(0, 1, payload); err != nil {
			sendErr = err
		}
		clk.Advance(latency)
	})
	if sendErr != nil {
		return sendErr
	}
	if received == 0 {
		return fmt.Errorf("ladder: the in-memory transport delivered nothing")
	}

	// One datagram in flight at a time between two loopback sockets.
	addrs, err := reservePorts(2)
	if err != nil {
		return err
	}
	peers := [][]string{addrs[:1], addrs[1:]}
	var udp [2]*transport.UDP
	for n := range udp {
		if udp[n], err = transport.NewUDP(transport.UDPConfig{Node: n, Listen: peers[n], Peers: peers}); err != nil {
			return err
		}
		defer udp[n].Close()
	}
	arrived := make(chan struct{}, 1)
	udp[1].SetReceiver(func(rail, src int, body []byte) { arrived <- struct{}{} })
	lost := 0
	frame := func(int) {
		if err := udp[0].Send(0, 1, payload); err != nil {
			sendErr = err
		}
		select {
		case <-arrived:
		case <-time.After(liveLossTimeout):
			lost++
		}
	}
	l.out["transport.udp_frame_us"] = l.perOp(20000, frame) / 1e3
	// time.After costs three allocations a frame; they are not the
	// transport's.
	l.out["transport.udp_frame_allocs"] = l.allocsPerOp(20000, frame) - 3
	if lost > 0 {
		return fmt.Errorf("ladder: %d loopback datagrams lost", lost)
	}
	return sendErr
}

func (l *ladder) clock() error {
	nop := func() {}
	clk := clock.NewManual()
	for i := 0; i < 1000; i++ {
		clk.AfterFunc(time.Hour, nop)
	}
	l.out["clock.manual_timer_ns"] = l.perOp(500000, func(int) {
		clk.AfterFunc(time.Microsecond, nop)
		clk.Advance(time.Microsecond)
	})

	// How late a live Wall fires a timer that is already due.
	live := clock.NewWall()
	defer live.Stop()
	fired := make(chan time.Duration, 1)
	delays := make([]float64, l.n(2000))
	for i := range delays {
		t0 := time.Now()
		live.AfterFunc(0, func() { fired <- time.Since(t0) })
		delays[i] = float64(<-fired) / 1e3
	}
	sort.Float64s(delays)
	l.out["clock.wall_dispatch_us"] = quantile(delays, 0.5)
	return nil
}

// ---- conn, rng, topology, montecarlo, survival -----------------------

func (l *ladder) analytic() error {
	r := rng.New(1)
	sink := uint64(0)
	l.out["rng.uint64_ns"] = l.perOp(5000000, func(int) { sink += r.Uint64() })
	idx := make([]int, 4)
	l.out["rng.samplek_ns"] = l.perOp(1000000, func(int) { r.SampleK(idx, 128) })

	// Pre-drawn scenarios, so only the evaluation is timed.
	dual := topology.Dual(63)
	eval, err := conn.NewEvaluator(dual)
	if err != nil {
		return err
	}
	scenarios := make([][]topology.Component, 1024)
	for i := range scenarios {
		r.SampleK(idx, dual.Components())
		for _, c := range idx {
			scenarios[i] = append(scenarios[i], topology.Component(c))
		}
	}
	connected := 0
	l.out["conn.dual_eval_ns"] = l.perOp(2000000, func(i int) {
		if eval.PairConnected(scenarios[i%len(scenarios)], 0, 1) {
			connected++
		}
	})

	k := l.pick(36, 8)
	var fab *topology.Fabric
	build := l.best(3, func() time.Duration {
		return since(func() { fab, err = topology.FatTree(k) })
	})
	if err != nil {
		return err
	}
	l.out["topology.fattree_build_ms_k36"] = float64(build) / 1e6
	feval, err := conn.NewFabricEvaluator(fab)
	if err != nil {
		return err
	}
	scratch := feval.NewScratch()
	fscenarios := make([][]topology.Component, 64)
	for i := range fscenarios {
		for c := 0; c < fab.Components(); c++ {
			if r.Float64() < 0.01 {
				fscenarios[i] = append(fscenarios[i], topology.Component(c))
			}
		}
	}
	l.out["conn.fabric_eval_us_k36"] = l.perOp(256, func(i int) {
		if feval.PairConnected(scratch, fscenarios[i%len(fscenarios)], 0, fab.Hosts()-1) {
			connected++
		}
	}) / 1e3
	if connected == 0 || sink == 0 {
		return fmt.Errorf("ladder: no scenario left the pair connected")
	}

	failures := []int{2, 3, 4, 5, 6, 7, 8, 9, 10}
	figure2 := func() {
		if _, ferr := experiments.Figure2Workers(failures, 63, 1); ferr != nil {
			err = ferr
		}
	}
	l.out["survival.figure2_cold_ms"] = float64(l.best(3, func() time.Duration {
		survival.ResetCaches()
		return since(figure2)
	})) / 1e6
	l.out["survival.figure2_warm_us"] = l.perOp(20, func(int) { figure2() }) / 1e3
	return err
}

// ---- parallel -------------------------------------------------------

// speedup times run at one worker and at two and returns t1/t2. run
// returns what the cross-check compares: a sweep's result must not
// depend on its worker count.
func speedup[T comparable](l *ladder, run func(workers int) (T, error)) (x float64, t1 time.Duration, res T, err error) {
	var res2 T
	var t2 time.Duration
	t1 = l.best(2, func() time.Duration {
		return since(func() { res, err = run(1) })
	})
	if err != nil {
		return 0, 0, res, err
	}
	t2 = l.best(2, func() time.Duration {
		return since(func() { res2, err = run(2) })
	})
	if err != nil {
		return 0, 0, res, err
	}
	if res != res2 {
		return 0, 0, res, fmt.Errorf("ladder: result %v at one worker, %v at two", res, res2)
	}
	return float64(t1) / float64(t2), t1, res, nil
}

func (l *ladder) parallel() error {
	items := l.n(100000)
	var mapErr error
	l.out["parallel.map_item_ns"] = float64(l.best(5, func() time.Duration {
		return since(func() {
			_, mapErr = parallel.Map(nil, 1, items, func(i int) (int, error) { return i, nil })
		})
	})) / float64(items)
	if mapErr != nil {
		return mapErr
	}

	cov := experiments.DefaultCoverageConfig()
	cov.Nodes = l.pick(8, 3)
	x, _, _, err := speedup(l, func(workers int) (experiments.ClassStats, error) {
		cov.Workers = workers
		res, err := experiments.FaultCoverage(cov)
		if err != nil {
			return experiments.ClassStats{}, err
		}
		return res.Total, nil
	})
	if err != nil {
		return err
	}
	l.out["parallel.coverage_speedup_w2"] = x

	// The paper's Figure 3 quantity: the Monte Carlo estimate against
	// Equation 1, for 63 nodes and four failures.
	dual := montecarlo.Config{Cluster: topology.Dual(63), Failures: 4, Iterations: int64(l.n(2000000)), Seed: 1}
	x, t1, est, err := speedup(l, func(workers int) (montecarlo.Result, error) {
		dual.Workers = workers
		return montecarlo.Estimate(dual)
	})
	if err != nil {
		return err
	}
	absErr := math.Abs(est.P - survival.PSuccessFloat(63, 4))
	if absErr > 3*est.CI95 {
		return fmt.Errorf("ladder: Monte Carlo estimate %v is %v from Equation 1, beyond 3×CI95 = %v", est.P, absErr, 3*est.CI95)
	}
	l.out["parallel.mc_dual_speedup_w2"] = x
	l.out["montecarlo.dual63_trials_per_s"] = float64(dual.Iterations) / t1.Seconds()
	l.out["montecarlo.dual63_abs_err"] = absErr

	fab, err := topology.FatTree(l.pick(16, 4))
	if err != nil {
		return err
	}
	fabric := montecarlo.FabricConfig{Fabric: fab, Q: 0.01, Iterations: int64(l.n(16384)), Seed: 1, PairB: fab.Hosts() - 1}
	x, _, _, err = speedup(l, func(workers int) (montecarlo.Result, error) {
		fabric.Workers = workers
		return montecarlo.EstimateFabric(fabric)
	})
	if err != nil {
		return err
	}
	l.out["parallel.mc_fabric_speedup_w2"] = x
	return nil
}
