package core

import (
	"testing"
	"time"

	"drsnet/internal/netsim"
	"drsnet/internal/routing/wire"
	"drsnet/internal/simtime"
	"drsnet/internal/topology"
)

// dynamicCluster builds daemons with dynamic membership and an empty
// initial monitor set.
func dynamicCluster(t *testing.T, n int, cfg Config) *cluster {
	t.Helper()
	cfg.DynamicMembership = true
	sched := simtime.NewScheduler()
	net, err := netsim.New(sched, topology.Dual(n), netsim.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{sched: sched, net: net, delivered: make([][]msg, n)}
	clock := simtime.Clock{Sched: sched}
	for node := 0; node < n; node++ {
		node := node
		d, err := New(netsim.NewTransport(net, node), clock, cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.SetDeliverFunc(func(src int, data []byte) {
			c.delivered[node] = append(c.delivered[node], msg{src, string(data)})
		})
		c.daemons = append(c.daemons, d)
	}
	for _, d := range c.daemons {
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestDynamicDiscoveryFromEmpty(t *testing.T) {
	cfg := DefaultConfig()
	c := dynamicCluster(t, 4, cfg)
	defer c.stop()
	// Before any hello exchange, nobody knows anybody.
	if got := c.daemons[0].Peers(); len(got) != 0 {
		t.Fatalf("peers before discovery = %v", got)
	}
	if err := c.daemons[0].SendData(1, []byte("x")); err == nil {
		t.Fatal("send to undiscovered peer accepted")
	}
	c.runFor(3 * cfg.ProbeInterval)
	for node, d := range c.daemons {
		if got := d.Peers(); len(got) != 3 {
			t.Fatalf("node %d discovered %v, want 3 peers", node, got)
		}
	}
	// Discovered peers route and deliver.
	if err := c.daemons[0].SendData(3, []byte("found-you")); err != nil {
		t.Fatal(err)
	}
	c.runFor(200 * time.Millisecond)
	if len(c.delivered[3]) != 1 || c.delivered[3][0].data != "found-you" {
		t.Fatalf("delivered = %v", c.delivered[3])
	}
}

func TestDynamicLateJoiner(t *testing.T) {
	// Build 4 daemons but start the last one later: the early three
	// must pick it up when it finally says hello.
	cfg := DefaultConfig()
	cfg.DynamicMembership = true
	sched := simtime.NewScheduler()
	net, err := netsim.New(sched, topology.Dual(4), netsim.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	clock := simtime.Clock{Sched: sched}
	var daemons []*Daemon
	for node := 0; node < 4; node++ {
		d, err := New(netsim.NewTransport(net, node), clock, cfg)
		if err != nil {
			t.Fatal(err)
		}
		daemons = append(daemons, d)
	}
	for node := 0; node < 3; node++ {
		if err := daemons[node].Start(); err != nil {
			t.Fatal(err)
		}
	}
	defer func() {
		for _, d := range daemons {
			d.Stop()
		}
	}()
	sched.RunUntil(simtime.Time(3 * time.Second))
	if got := daemons[0].Peers(); len(got) != 2 {
		t.Fatalf("early peers = %v, want 2", got)
	}
	if err := daemons[3].Start(); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(simtime.Time(6 * time.Second))
	for node := 0; node < 3; node++ {
		found := false
		for _, p := range daemons[node].Peers() {
			if p == 3 {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d did not discover the late joiner", node)
		}
	}
	if got := daemons[3].Peers(); len(got) != 3 {
		t.Fatalf("late joiner discovered %v", got)
	}
}

func TestDynamicGoodbyeRemovesPeer(t *testing.T) {
	cfg := DefaultConfig()
	c := dynamicCluster(t, 3, cfg)
	defer c.stop()
	c.runFor(3 * cfg.ProbeInterval)
	if len(c.daemons[0].Peers()) != 2 {
		t.Fatal("discovery incomplete")
	}
	c.daemons[2].Leave()
	c.runFor(cfg.ProbeInterval)
	for node := 0; node < 2; node++ {
		for _, p := range c.daemons[node].Peers() {
			if p == 2 {
				t.Fatalf("node %d still monitors departed peer", node)
			}
		}
	}
	// The departed node's routes are gone.
	if rt := c.daemons[0].RouteTo(2); rt.Kind != RouteNone {
		t.Fatalf("route to departed peer = %+v", rt)
	}
}

func TestStaticSeedsNeverForgotten(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DynamicMembership = true
	cfg.Monitor = []int{1} // node 1 is a static seed
	sched := simtime.NewScheduler()
	net, err := netsim.New(sched, topology.Dual(3), netsim.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	clock := simtime.Clock{Sched: sched}
	d, err := New(netsim.NewTransport(net, 0), clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	// Nobody else runs: node 1 is silent forever, but being a static
	// seed it must stay monitored (just marked down).
	sched.RunUntil(simtime.Time(10 * time.Second))
	peers := d.Peers()
	if len(peers) != 1 || peers[0] != 1 {
		t.Fatalf("peers = %v, want the static seed", peers)
	}
	if d.LinkUp(1, 0) || d.LinkUp(1, 1) {
		t.Fatal("silent static peer should be marked down")
	}
}

func TestDynamicFailoverStillWorks(t *testing.T) {
	cfg := DefaultConfig()
	c := dynamicCluster(t, 4, cfg)
	defer c.stop()
	c.runFor(3 * time.Second)
	c.net.Fail(c.net.Cluster().NIC(1, 0))
	c.runFor(time.Duration(cfg.MissThreshold+2) * cfg.ProbeInterval)
	rt := c.daemons[0].RouteTo(1)
	if rt.Kind != RouteDirect || rt.Rail != 1 {
		t.Fatalf("route = %+v, want direct rail 1", rt)
	}
	if err := c.daemons[0].SendData(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.runFor(200 * time.Millisecond)
	if len(c.delivered[1]) != 1 {
		t.Fatal("failover delivery failed under dynamic membership")
	}
}

func TestStaticModeIgnoresHellos(t *testing.T) {
	// A static-membership daemon must not learn peers from stray
	// hellos (configuration is authoritative, as deployed).
	cfg := DefaultConfig()
	cfg.Monitor = []int{1}
	sched := simtime.NewScheduler()
	net, err := netsim.New(sched, topology.Dual(3), netsim.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	clock := simtime.Clock{Sched: sched}
	d, err := New(netsim.NewTransport(net, 0), clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	defer d.Stop()
	if err := net.Send(2, 0, 0, wire.Envelope(wire.ProtoControl, wire.MarshalHello())); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(simtime.Time(time.Second))
	peers := d.Peers()
	if len(peers) != 1 || peers[0] != 1 {
		t.Fatalf("static daemon learned from hello: %v", peers)
	}
}

func TestDynamicConfigValidation(t *testing.T) {
	sched := simtime.NewScheduler()
	net, err := netsim.New(sched, topology.Dual(3), netsim.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.DynamicMembership = true
	cfg.Monitor = []int{0} // a seed naming the daemon itself
	if _, err := New(netsim.NewTransport(net, 0), simtime.Clock{Sched: sched}, cfg); err == nil {
		t.Fatal("dynamic daemon seeded with itself accepted")
	}
}
