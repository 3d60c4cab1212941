package core

import (
	"fmt"
	"testing"
	"time"

	"drsnet/internal/conn"
	"drsnet/internal/icmp"
	"drsnet/internal/netsim"
	"drsnet/internal/rng"
	"drsnet/internal/routing"
	"drsnet/internal/routing/wire"
	"drsnet/internal/simtime"
	"drsnet/internal/topology"
	"drsnet/internal/trace"
)

// cluster is a DRS test harness: n daemons over a simulated dual-rail
// network.
type cluster struct {
	sched     *simtime.Scheduler
	net       *netsim.Network
	daemons   []*Daemon
	delivered [][]msg
	log       *trace.Log
}

type msg struct {
	src  int
	data string
}

func newCluster(t testing.TB, n int, cfg Config) *cluster {
	t.Helper()
	return newClusterShape(t, topology.Dual(n), cfg)
}

func newClusterShape(t testing.TB, shape topology.Cluster, cfg Config) *cluster {
	t.Helper()
	c := buildClusterShape(t, shape, cfg, nil)
	for _, d := range c.daemons {
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// buildClusterShape assembles the harness without starting a daemon;
// tweak, if non-nil, adjusts each node's copy of cfg.
func buildClusterShape(t testing.TB, shape topology.Cluster, cfg Config, tweak func(node int, cfg *Config)) *cluster {
	t.Helper()
	sched := simtime.NewScheduler()
	net, err := netsim.New(sched, shape, netsim.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{
		sched:     sched,
		net:       net,
		delivered: make([][]msg, shape.Nodes),
		log:       trace.NewLog(0),
	}
	cfg.Trace = c.log
	clock := simtime.Clock{Sched: sched}
	for node := 0; node < shape.Nodes; node++ {
		node := node
		cfg := cfg
		if tweak != nil {
			tweak(node, &cfg)
		}
		d, err := New(netsim.NewTransport(net, node), clock, cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.SetDeliverFunc(func(src int, data []byte) {
			c.delivered[node] = append(c.delivered[node], msg{src, string(data)})
		})
		c.daemons = append(c.daemons, d)
	}
	return c
}

func (c *cluster) runFor(d time.Duration) {
	c.sched.RunUntil(c.sched.Now().Add(d))
}

func (c *cluster) stop() {
	for _, d := range c.daemons {
		d.Stop()
	}
}

func TestSteadyStateDirectDelivery(t *testing.T) {
	c := newCluster(t, 4, DefaultConfig())
	defer c.stop()
	c.runFor(100 * time.Millisecond)
	if err := c.daemons[0].SendData(3, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	c.runFor(100 * time.Millisecond)
	if len(c.delivered[3]) != 1 || c.delivered[3][0] != (msg{0, "hello"}) {
		t.Fatalf("delivered = %v", c.delivered[3])
	}
	if rt := c.daemons[0].RouteTo(3); rt.Kind != RouteDirect || rt.Via != 3 {
		t.Fatalf("route = %+v", rt)
	}
}

// echoTap counts the echo requests and replies each node transmits.
type echoTap struct{ requests, replies []int }

func (e *echoTap) FrameSent(_ time.Duration, fr netsim.Frame) {
	if len(fr.Payload) < 2 || fr.Payload[0] != wire.ProtoICMP {
		return
	}
	if fr.Payload[1] == icmp.TypeEchoRequest {
		e.requests[fr.Src]++
	} else {
		e.replies[fr.Src]++
	}
}

func (e *echoTap) FrameDelivered(time.Duration, netsim.Frame) {}

func TestProbesFlowAndLinksStayUp(t *testing.T) {
	c := newCluster(t, 3, DefaultConfig())
	defer c.stop()
	tap := &echoTap{requests: make([]int, 3), replies: make([]int, 3)}
	c.net.SetTap(tap)
	c.runFor(5 * time.Second)
	// Each pair shares one exchange per round and rail: the lower id
	// requests and the higher id answers. The tap sees the five rounds
	// after the first, which ran inside Start; in every round node 0
	// only requests and node 2, the higher id of both its pairs, only
	// answers.
	for node, want := range []int{2, 1, 0} {
		if got := tap.requests[node]; got != want*2*5 {
			t.Errorf("node %d sent %d requests in 5 rounds, want %d", node, got, want*2*5)
		}
		if got := tap.replies[node]; got != node*2*5 {
			t.Errorf("node %d sent %d replies in 5 rounds, want %d", node, got, node*2*5)
		}
	}
	for node, d := range c.daemons {
		for peer := 0; peer < 3; peer++ {
			if peer == node {
				continue
			}
			for rail := 0; rail < 2; rail++ {
				if !d.LinkUp(peer, rail) {
					t.Fatalf("node %d thinks (%d,%d) is down on a healthy network", node, peer, rail)
				}
				// The answering end measures the requester's round
				// trips, carried in the requests.
				if _, ok := d.RTT(peer, rail); !ok {
					t.Fatalf("node %d has no RTT for (%d,%d)", node, peer, rail)
				}
			}
		}
		if d.Metrics().Counter(routing.CtrLinkDown).Value() != 0 {
			t.Fatalf("node %d saw spurious link-down", node)
		}
	}
}

func TestNICFailureFailsOverToSecondRail(t *testing.T) {
	cfg := DefaultConfig()
	c := newCluster(t, 3, cfg)
	defer c.stop()
	c.runFor(3 * time.Second)

	// Kill B's rail-0 NIC; A's route to B is direct rail 0.
	failAt := c.sched.Now().Duration()
	c.net.Fail(c.net.Cluster().NIC(1, 0))

	// Detection needs MissThreshold consecutive missed rounds.
	c.runFor(time.Duration(cfg.MissThreshold+2) * cfg.ProbeInterval)

	if c.daemons[0].LinkUp(1, 0) {
		t.Fatal("A still believes B's rail-0 link is up")
	}
	rt := c.daemons[0].RouteTo(1)
	if rt.Kind != RouteDirect || rt.Rail != 1 || rt.Via != 1 {
		t.Fatalf("route after failover = %+v, want direct rail 1", rt)
	}

	// Repair latency must be within the proactive budget:
	// (MissThreshold+1) probe intervals.
	repairs := c.daemons[0].Repairs()
	if len(repairs) == 0 {
		t.Fatal("no repair recorded")
	}
	last := repairs[len(repairs)-1]
	if last.Peer != 1 {
		t.Fatalf("repair = %+v", last)
	}
	detectionBudget := time.Duration(cfg.MissThreshold+1) * cfg.ProbeInterval
	if got := last.RepairedAt - failAt; got > detectionBudget {
		t.Fatalf("repair took %v after failure, budget %v", got, detectionBudget)
	}

	// Traffic flows on the new route.
	if err := c.daemons[0].SendData(1, []byte("after")); err != nil {
		t.Fatal(err)
	}
	c.runFor(100 * time.Millisecond)
	if len(c.delivered[1]) != 1 || c.delivered[1][0].data != "after" {
		t.Fatalf("delivered = %v", c.delivered[1])
	}
}

func TestBackplaneFailureFailsOverEveryone(t *testing.T) {
	cfg := DefaultConfig()
	c := newCluster(t, 5, cfg)
	defer c.stop()
	c.runFor(3 * time.Second)
	c.net.Fail(c.net.Cluster().Backplane(0))
	c.runFor(time.Duration(cfg.MissThreshold+2) * cfg.ProbeInterval)

	for node, d := range c.daemons {
		for peer := 0; peer < 5; peer++ {
			if peer == node {
				continue
			}
			rt := d.RouteTo(peer)
			if rt.Kind != RouteDirect || rt.Rail != 1 {
				t.Fatalf("node %d route to %d = %+v, want direct rail 1", node, peer, rt)
			}
		}
	}
	// All-pairs traffic still works.
	for a := 0; a < 5; a++ {
		for b := 0; b < 5; b++ {
			if a == b {
				continue
			}
			if err := c.daemons[a].SendData(b, []byte(fmt.Sprintf("%d>%d", a, b))); err != nil {
				t.Fatalf("%d->%d: %v", a, b, err)
			}
		}
	}
	c.runFor(500 * time.Millisecond)
	for b := 0; b < 5; b++ {
		if len(c.delivered[b]) != 4 {
			t.Fatalf("node %d received %d messages, want 4", b, len(c.delivered[b]))
		}
	}
}

func TestCrossRailFailureUsesRelay(t *testing.T) {
	// A keeps only rail 1, B keeps only rail 0: no direct path, but
	// any healthy third node can relay — the DRS broadcast discovery.
	cfg := DefaultConfig()
	c := newCluster(t, 4, cfg)
	defer c.stop()
	c.runFor(3 * time.Second)
	cl := c.net.Cluster()
	c.net.Fail(cl.NIC(0, 0))
	c.net.Fail(cl.NIC(1, 1))
	c.runFor(time.Duration(cfg.MissThreshold+3) * cfg.ProbeInterval)

	if err := c.daemons[0].SendData(1, []byte("via-relay")); err != nil {
		t.Fatal(err)
	}
	c.runFor(2 * cfg.ProbeInterval)
	if len(c.delivered[1]) != 1 || c.delivered[1][0].data != "via-relay" {
		t.Fatalf("delivered = %v", c.delivered[1])
	}
	rt := c.daemons[0].RouteTo(1)
	if rt.Kind != RouteRelay {
		t.Fatalf("route = %+v, want relay", rt)
	}
	if rt.Via != 2 && rt.Via != 3 {
		t.Fatalf("relay via %d, want a healthy third node", rt.Via)
	}
	forwarded := c.daemons[2].Metrics().Counter(routing.CtrDataForwarded).Value() +
		c.daemons[3].Metrics().Counter(routing.CtrDataForwarded).Value()
	if forwarded == 0 {
		t.Fatal("no relay forwarding recorded")
	}
}

func TestQueuedDataFlushedAfterDiscovery(t *testing.T) {
	cfg := DefaultConfig()
	c := newCluster(t, 3, cfg)
	defer c.stop()
	c.runFor(3 * time.Second)
	cl := c.net.Cluster()
	c.net.Fail(cl.NIC(0, 0))
	c.net.Fail(cl.NIC(1, 1))
	c.runFor(time.Duration(cfg.MissThreshold+3) * cfg.ProbeInterval)

	// The route may already be repaired via discovery triggered by
	// markDown; force a fresh discovery by sending immediately after
	// another failure/restore cycle is unnecessary — instead verify
	// multiple sends all arrive in order.
	for i := 0; i < 3; i++ {
		if err := c.daemons[0].SendData(1, []byte(fmt.Sprintf("m%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	c.runFor(2 * cfg.ProbeInterval)
	if len(c.delivered[1]) != 3 {
		t.Fatalf("delivered = %v", c.delivered[1])
	}
	for i, m := range c.delivered[1] {
		if m.data != fmt.Sprintf("m%d", i) {
			t.Fatalf("order broken: %v", c.delivered[1])
		}
	}
}

func TestRecoveryReinstatesDirectRoute(t *testing.T) {
	cfg := DefaultConfig()
	c := newCluster(t, 3, cfg)
	defer c.stop()
	c.runFor(3 * time.Second)
	nic := c.net.Cluster().NIC(1, 0)
	c.net.Fail(nic)
	c.runFor(time.Duration(cfg.MissThreshold+2) * cfg.ProbeInterval)
	if rt := c.daemons[0].RouteTo(1); rt.Rail != 1 {
		t.Fatalf("expected failover first, route = %+v", rt)
	}
	c.net.Restore(nic)
	c.runFor(3 * cfg.ProbeInterval)
	if !c.daemons[0].LinkUp(1, 0) {
		t.Fatal("restored link not re-detected")
	}
	// Route stays on the (still healthy) rail 1 — stability — but the
	// link state must have recovered; kill rail 1 and the daemon must
	// fail back instantly.
	c.net.Fail(c.net.Cluster().NIC(1, 1))
	c.runFor(time.Duration(cfg.MissThreshold+2) * cfg.ProbeInterval)
	rt := c.daemons[0].RouteTo(1)
	if rt.Kind != RouteDirect || rt.Rail != 0 {
		t.Fatalf("fail-back route = %+v, want direct rail 0", rt)
	}
}

func TestTotalPartitionQueuesThenDropsOldest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueCapacity = 4
	c := newCluster(t, 3, cfg)
	defer c.stop()
	c.runFor(3 * time.Second)
	cl := c.net.Cluster()
	// Isolate node 1 completely.
	c.net.Fail(cl.NIC(1, 0))
	c.net.Fail(cl.NIC(1, 1))
	c.runFor(time.Duration(cfg.MissThreshold+3) * cfg.ProbeInterval)

	if rt := c.daemons[0].RouteTo(1); rt.Kind != RouteNone {
		t.Fatalf("route to isolated node = %+v, want none", rt)
	}
	// The queue fills, then overflow evicts the oldest datagram: every
	// send still succeeds (recovery is the expected outcome) and the
	// overflow counter records each eviction.
	for i := 0; i < cfg.QueueCapacity+2; i++ {
		if err := c.daemons[0].SendData(1, []byte{byte(i)}); err != nil {
			t.Fatalf("send %d failed: %v", i, err)
		}
		c.runFor(10 * time.Millisecond)
	}
	if got := c.daemons[0].Metrics().Counter(routing.CtrQueueOverflow).Value(); got != 2 {
		t.Fatalf("queue.overflow = %d, want 2", got)
	}
	if len(c.delivered[1]) != 0 {
		t.Fatal("data delivered to an isolated node")
	}

	// Repair the partition: discovery reruns, the route reinstalls and
	// exactly the freshest QueueCapacity datagrams flush, oldest-first.
	c.net.Restore(cl.NIC(1, 0))
	c.net.Restore(cl.NIC(1, 1))
	c.runFor(time.Duration(cfg.MissThreshold+3) * cfg.ProbeInterval)
	got := c.delivered[1]
	if len(got) != cfg.QueueCapacity {
		t.Fatalf("%d datagrams delivered after repair, want %d: %v", len(got), cfg.QueueCapacity, got)
	}
	for i, m := range got {
		if want := string([]byte{byte(i + 2)}); m.src != 0 || m.data != want {
			t.Fatalf("delivery %d = %+v, want payload %q from 0", i, m, want)
		}
	}
}

func TestImplicitLivenessFromEchoRequests(t *testing.T) {
	// A daemon that hears a peer's probe treats it as liveness
	// evidence even before its own probe cycle confirms.
	cfg := DefaultConfig()
	c := newCluster(t, 2, cfg)
	defer c.stop()
	c.runFor(3 * time.Second)
	nic := c.net.Cluster().NIC(0, 0)
	c.net.Fail(nic)
	c.runFor(time.Duration(cfg.MissThreshold+2) * cfg.ProbeInterval)
	if c.daemons[1].LinkUp(0, 0) {
		t.Fatal("B did not notice A's rail-0 NIC failure")
	}
	c.net.Restore(nic)
	c.runFor(3 * cfg.ProbeInterval)
	if !c.daemons[1].LinkUp(0, 0) {
		t.Fatal("B did not re-learn the restored link")
	}
}

func TestMonitorSubset(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Monitor = []int{1} // node 0 only watches node 1
	sched := simtime.NewScheduler()
	net, err := netsim.New(sched, topology.Dual(3), netsim.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(netsim.NewTransport(net, 0), simtime.Clock{Sched: sched}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	sched.RunUntil(simtime.Time(100 * time.Millisecond))
	if err := d.SendData(2, nil); err == nil {
		t.Fatal("send to unmonitored peer accepted")
	}
	if d.LinkUp(2, 0) {
		t.Fatal("unmonitored peer reported up")
	}
}

func TestConfigValidation(t *testing.T) {
	sched := simtime.NewScheduler()
	net, err := netsim.New(sched, topology.Dual(3), netsim.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := netsim.NewTransport(net, 0)
	clock := simtime.Clock{Sched: sched}
	if _, err := New(nil, clock, DefaultConfig()); err == nil {
		t.Error("nil transport accepted")
	}
	for name, mutate := range map[string]func(*Config){
		"zero interval":  func(c *Config) { c.ProbeInterval = 0 },
		"zero threshold": func(c *Config) { c.MissThreshold = 0 },
		"zero relay ttl": func(c *Config) { c.RelayTTL = 0 },
		"neg timeout":    func(c *Config) { c.QueryTimeout = -time.Second },
		"monitor self":   func(c *Config) { c.Monitor = []int{0} },
		"monitor oob":    func(c *Config) { c.Monitor = []int{7} },
		"monitor dup":    func(c *Config) { c.Monitor = []int{1, 1} },
	} {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(tr, clock, cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	d, err := New(tr, clock, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err == nil {
		t.Error("double start accepted")
	}
	if err := d.SendData(0, nil); err == nil {
		t.Error("self send accepted")
	}
	if err := d.SendData(99, nil); err == nil {
		t.Error("oob send accepted")
	}
	d.Stop()
	if err := d.SendData(1, nil); err != routing.ErrStopped {
		t.Errorf("send after stop: %v", err)
	}
}

func TestStopHaltsProbing(t *testing.T) {
	c := newCluster(t, 2, DefaultConfig())
	c.runFor(2 * time.Second)
	c.stop()
	before := c.daemons[0].Metrics().Counter(routing.CtrProbesSent).Value()
	c.runFor(5 * time.Second)
	after := c.daemons[0].Metrics().Counter(routing.CtrProbesSent).Value()
	if after != before {
		t.Fatalf("stopped daemon kept probing: %d -> %d", before, after)
	}
}

// TestSimulationMatchesAnalyticModel is the keystone integration test:
// for random failure scenarios, the running protocol delivers between
// the designated pair if and only if the analytic connectivity
// predicate (the basis of Equation 1) says the pair is connected.
func TestSimulationMatchesAnalyticModel(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep in -short mode")
	}
	shape := topology.Dual(5)
	eval, err := conn.NewEvaluator(shape)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(20240706)
	cfg := DefaultConfig()
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		f := 1 + r.Intn(5)
		idx := make([]int, f)
		r.SampleK(idx, shape.Components())
		failed := make([]topology.Component, f)
		for i, v := range idx {
			failed[i] = topology.Component(v)
		}
		want := eval.PairConnected(failed, 0, 1)

		c := newCluster(t, shape.Nodes, cfg)
		c.runFor(2 * time.Second) // healthy warm-up
		for _, comp := range failed {
			c.net.Fail(comp)
		}
		// Let detection and repair settle everywhere.
		c.runFor(time.Duration(cfg.MissThreshold+4) * cfg.ProbeInterval)
		sendErr := c.daemons[0].SendData(1, []byte("probe"))
		c.runFor(3 * cfg.ProbeInterval)
		got := len(c.delivered[1]) > 0
		c.stop()

		if got != want {
			t.Fatalf("trial %d: failures %v: delivered=%v analytic=%v (send err %v)",
				trial, failed, got, want, sendErr)
		}
	}
}

func TestThreeRailClusterFailsOverAcrossAllRails(t *testing.T) {
	cfg := DefaultConfig()
	c := newClusterShape(t, topology.Cluster{Nodes: 3, Rails: 3}, cfg)
	defer c.stop()
	c.runFor(3 * time.Second)
	cl := c.net.Cluster()
	c.net.Fail(cl.NIC(1, 0))
	c.net.Fail(cl.NIC(1, 1))
	c.runFor(time.Duration(cfg.MissThreshold+2) * cfg.ProbeInterval)
	rt := c.daemons[0].RouteTo(1)
	if rt.Kind != RouteDirect || rt.Rail != 2 {
		t.Fatalf("route = %+v, want direct rail 2", rt)
	}
	if err := c.daemons[0].SendData(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.runFor(200 * time.Millisecond)
	if len(c.delivered[1]) != 1 {
		t.Fatal("not delivered on third rail")
	}
}

func TestNoRoutingLoopsUnderChurn(t *testing.T) {
	// Fail and restore components while blasting traffic; total
	// forwards must stay bounded by sends × TTL — a loop would blow
	// far past it — and the scheduler must quiesce.
	cfg := DefaultConfig()
	c := newCluster(t, 6, cfg)
	defer c.stop()
	r := rng.New(99)
	cl := c.net.Cluster()
	sends := 0
	for round := 0; round < 20; round++ {
		comp := topology.Component(r.Intn(cl.Components()))
		if round%3 == 2 {
			c.net.Restore(comp)
		} else {
			c.net.Fail(comp)
		}
		for i := 0; i < 4; i++ {
			a := r.Intn(6)
			b := r.Intn(6)
			if a == b {
				continue
			}
			if err := c.daemons[a].SendData(b, []byte("churn")); err == nil {
				sends++
			}
		}
		c.runFor(1500 * time.Millisecond)
	}
	var forwarded int64
	for _, d := range c.daemons {
		forwarded += d.Metrics().Counter(routing.CtrDataForwarded).Value()
	}
	if forwarded > int64(sends*cfg.DataTTL) {
		t.Fatalf("forwarded %d frames for %d sends (TTL %d): routing loop",
			forwarded, sends, cfg.DataTTL)
	}
}

func TestRouteKindString(t *testing.T) {
	if RouteNone.String() != "none" || RouteDirect.String() != "direct" || RouteRelay.String() != "relay" {
		t.Fatal("route kind strings wrong")
	}
	if (Route{Kind: 9}).Kind.String() == "" {
		t.Fatal("unknown kind empty")
	}
}

func TestRepairLatencyHelper(t *testing.T) {
	r := Repair{LostAt: time.Second, RepairedAt: 3 * time.Second}
	if r.Latency() != 2*time.Second {
		t.Fatalf("latency = %v", r.Latency())
	}
}
