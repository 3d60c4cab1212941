package failover_test

import (
	"errors"
	"testing"

	"drsnet/internal/failover"
	"drsnet/internal/invariant"
	"drsnet/internal/netsim"
	"drsnet/internal/routing"
	"drsnet/internal/routing/wire"
	"drsnet/internal/simtime"
	"drsnet/internal/topology"
	"drsnet/internal/transport"
)

// carrier adapts one node's view of the network to the Sensor oracle,
// exactly as the runtime does.
type carrier struct {
	net  *netsim.Network
	node int
}

func (c carrier) CarrierUp(peer, rail int) bool { return c.net.CarrierUp(c.node, peer, rail) }

type recv struct {
	src  int
	data string
}

// cluster is an n-node simulated cluster of one failover variant,
// with the invariant checker installed as the network tap.
type cluster struct {
	t       *testing.T
	sched   *simtime.Scheduler
	net     *netsim.Network
	routers []routing.Router
	checker *invariant.Checker
	got     [][]recv
}

func newCluster(t *testing.T, n int, build func(tr transport.Transport, s failover.Sensor) (routing.Router, error)) *cluster {
	t.Helper()
	sched := simtime.NewScheduler()
	net, err := netsim.New(sched, topology.Dual(n), netsim.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	c := &cluster{t: t, sched: sched, net: net, got: make([][]recv, n)}
	c.checker = invariant.New(invariant.Config{RequireDelivery: true, Reachable: net.Reachable})
	net.SetTap(c.checker)
	for node := 0; node < n; node++ {
		node := node
		r, err := build(netsim.NewTransport(net, node), carrier{net, node})
		if err != nil {
			t.Fatal(err)
		}
		r.SetDeliverFunc(func(src int, data []byte) {
			c.got[node] = append(c.got[node], recv{src, string(data)})
		})
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
		c.routers = append(c.routers, r)
	}
	return c
}

func (c *cluster) run() { c.sched.Run(0) }

func (c *cluster) finalize() *invariant.Report {
	return c.checker.Finalize(c.sched.Now().Duration())
}

func rotor(tr transport.Transport, s failover.Sensor) (routing.Router, error) {
	return failover.NewRotor(tr, s, failover.Config{})
}

func arbor(tr transport.Transport, s failover.Sensor) (routing.Router, error) {
	return failover.NewArbor(tr, s, failover.Config{})
}

func bounce(tr transport.Transport, s failover.Sensor) (routing.Router, error) {
	return failover.NewBounce(tr, s, failover.Config{})
}

// TestHealthyDelivery: on an unimpaired cluster every variant
// delivers directly, invariant-clean.
func TestHealthyDelivery(t *testing.T) {
	for name, build := range map[string]func(transport.Transport, failover.Sensor) (routing.Router, error){
		"rotor": rotor, "arbor": arbor, "bounce": bounce,
	} {
		t.Run(name, func(t *testing.T) {
			c := newCluster(t, 3, build)
			if err := c.routers[0].SendData(2, []byte("hi")); err != nil {
				t.Fatal(err)
			}
			c.run()
			if len(c.got[2]) != 1 || c.got[2][0] != (recv{0, "hi"}) {
				t.Fatalf("delivered = %v", c.got[2])
			}
			rep := c.finalize()
			if err := rep.Err(); err != nil {
				t.Fatal(err)
			}
			if rep.MaxHopsSeen != 1 {
				t.Fatalf("direct delivery took %d hops", rep.MaxHopsSeen)
			}
		})
	}
}

// TestRotorFailsOverAcrossRails: with the destination's primary-rail
// NIC dead, the rotor's carrier sensor steers the very first packet
// onto the other rail — zero convergence delay.
func TestRotorFailsOverAcrossRails(t *testing.T) {
	c := newCluster(t, 3, rotor)
	c.net.Fail(c.net.Cluster().NIC(2, 0))
	if err := c.routers[0].SendData(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.run()
	if len(c.got[2]) != 1 {
		t.Fatalf("delivered = %v", c.got[2])
	}
	if err := c.finalize().Err(); err != nil {
		t.Fatal(err)
	}
	if got := c.routers[0].Metrics().Counter(failover.CtrReroutes).Value(); got != 1 {
		t.Fatalf("reroutes = %d, want 1", got)
	}
}

// TestMixedRailFailure is the case separating the variants: sender
// dead on rail 0, receiver dead on rail 1. No direct rail exists, but
// any relay bridges. The rotor (direct-only) must refuse with
// ErrNoRoute; arborescence and bounce must deliver through a relay.
func TestMixedRailFailure(t *testing.T) {
	wound := func(c *cluster) {
		c.net.Fail(c.net.Cluster().NIC(0, 0))
		c.net.Fail(c.net.Cluster().NIC(2, 1))
	}

	t.Run("rotor-refuses", func(t *testing.T) {
		c := newCluster(t, 3, rotor)
		wound(c)
		if err := c.routers[0].SendData(2, []byte("x")); !errors.Is(err, routing.ErrNoRoute) {
			t.Fatalf("err = %v, want ErrNoRoute", err)
		}
		c.run()
		// The rotor refused at the source, so nothing was even sent:
		// clean, just not useful.
		if err := c.finalize().Err(); err != nil {
			t.Fatal(err)
		}
	})

	for name, build := range map[string]func(transport.Transport, failover.Sensor) (routing.Router, error){
		"arbor": arbor, "bounce": bounce,
	} {
		t.Run(name+"-relays", func(t *testing.T) {
			c := newCluster(t, 3, build)
			wound(c)
			if err := c.routers[0].SendData(2, []byte("x")); err != nil {
				t.Fatal(err)
			}
			c.run()
			if len(c.got[2]) != 1 {
				t.Fatalf("delivered = %v", c.got[2])
			}
			rep := c.finalize()
			if err := rep.Err(); err != nil {
				t.Fatal(err)
			}
			if rep.MaxHopsSeen != 2 {
				t.Fatalf("relay delivery took %d hops", rep.MaxHopsSeen)
			}
		})
	}
}

// TestBounceRevisitsMonotonically: wound the cluster so the bounce
// packet reaches a relay whose onward legs are all dead, forcing it
// back through already-visited territory at a higher attempt. The
// invariant checker must see revisits but zero same-state loops, and
// the packet must terminate (dropped, not circulating) despite having
// no TTL.
func TestBounceRevisitsMonotonically(t *testing.T) {
	c := newCluster(t, 4, bounce)
	cl := c.net.Cluster()
	// Sender 1 -> destination 3. Relay candidates for 3 are node 0 and
	// node 1 (the sender itself, degenerate). Kill: sender's rail-0
	// transmit, destination's rail-1 receive, and relay 0's rail-0
	// transmit. Now 1->3 has no direct rail, relay 0 is reachable but
	// cannot reach 3, and the only remaining relay is the sender — a
	// dead end. Node 2 could bridge, but it is not a relay candidate:
	// static resilience is imperfect (Dai & Foerster).
	c.net.FailDir(cl.NIC(1, 0), netsim.DirTx)
	c.net.FailDir(cl.NIC(3, 1), netsim.DirRx)
	c.net.FailDir(cl.NIC(0, 0), netsim.DirTx)

	if err := c.routers[1].SendData(3, []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.run()
	if len(c.got[3]) != 0 {
		t.Fatalf("delivered = %v, want drop", c.got[3])
	}
	rep := c.finalize()
	if rep.Loops != 0 {
		t.Fatalf("loops = %d, want 0", rep.Loops)
	}
	if rep.Revisits == 0 {
		t.Fatal("expected a header-rewriting revisit")
	}
	// Ground truth says 1 and 3 are still connected (via node 2), so
	// this loss is a genuine — and expected — resilience violation.
	if rep.Undelivered != 1 || rep.UndeliveredExcused != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Err() == nil {
		t.Fatal("undelivered-while-connected must violate RequireDelivery")
	}
}

// TestCrashedDaemonBlackholes: a fail-stopped daemon keeps its link
// lights on, so no static variant can detect it — the frame is sent
// into the void. With the crashed node being the only possible relay,
// ground truth agrees the endpoints are disconnected, so the loss is
// excused: the protocol could not have done better.
func TestCrashedDaemonBlackholes(t *testing.T) {
	c := newCluster(t, 3, arbor)
	cl := c.net.Cluster()
	// Force the relay path (as in TestMixedRailFailure), then crash the
	// relay daemon. Carrier stays up, so the arbor still picks it.
	c.net.Fail(cl.NIC(0, 0))
	c.net.Fail(cl.NIC(2, 1))
	c.net.FailNode(1)

	err := c.routers[0].SendData(2, []byte("x"))
	if err != nil {
		t.Fatalf("carrier-blind send should succeed, got %v", err)
	}
	c.run()
	if len(c.got[2]) != 0 {
		t.Fatalf("delivered = %v, want blackhole", c.got[2])
	}
	rep := c.finalize()
	// 0 and 2 are genuinely disconnected with the only relay dead, so
	// the checker excuses the loss — the protocol could not have done
	// better, which is exactly the point of the excuse clause.
	if rep.Undelivered != 1 || rep.UndeliveredExcused != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestBrokenTableLoops is the harness's negative control: a
// deliberately mis-built table — node 0 routes to 2 via 1, node 1
// routes to 2 via 0 — must produce a real forwarding loop, and the
// invariant checker must catch it. This proves the checker detects
// loops the TTL would otherwise silently absorb.
func TestBrokenTableLoops(t *testing.T) {
	broken := func(node, via int) failover.Table {
		t := failover.BuildRotor(node, 3, 2)
		t.Next[2] = []failover.Hop{{Rail: 0, Via: via}}
		return t
	}
	build := func(tr transport.Transport, s failover.Sensor) (routing.Router, error) {
		tables := map[int]failover.Table{
			0: broken(0, 1),
			1: broken(1, 0),
			2: failover.BuildRotor(2, 3, 2),
		}
		return failover.New(tr, s, tables[tr.Node()], failover.Config{TTL: 6})
	}
	c := newCluster(t, 3, build)
	if err := c.routers[0].SendData(2, []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.run()
	rep := c.finalize()
	if rep.Loops == 0 {
		t.Fatal("invariant checker missed a seeded forwarding loop")
	}
	if rep.Err() == nil {
		t.Fatal("looping run reported clean")
	}
	if len(c.got[2]) != 0 {
		t.Fatalf("delivered = %v", c.got[2])
	}
}

// TestTableShapes pins the precomputed table structure.
func TestTableShapes(t *testing.T) {
	rot := failover.BuildRotor(0, 4, 2)
	if err := failover.Validate(rot, 4, 2); err != nil {
		t.Fatal(err)
	}
	if len(rot.Next[0]) != 0 {
		t.Fatal("rotor routes to self")
	}
	if got := rot.Next[2]; len(got) != 2 || got[0] != (failover.Hop{Rail: 0, Via: 2}) || got[1] != (failover.Hop{Rail: 1, Via: 2}) {
		t.Fatalf("rotor candidates = %v", got)
	}

	arb := failover.BuildArbor(0, 4, 2)
	if err := failover.Validate(arb, 4, 2); err != nil {
		t.Fatal(err)
	}
	// Direct rails first, then relays (dst+1)%4=3... for dst 2: relays
	// 3 and 0; relay 0 is this node, degenerating to direct.
	want := []failover.Hop{
		{Rail: 0, Via: 2}, {Rail: 1, Via: 2}, // rotor prefix
		{Rail: 0, Via: 3}, {Rail: 1, Via: 3}, // relay (2+1)%4
		{Rail: 0, Via: 2}, {Rail: 1, Via: 2}, // relay (2+2)%4 == self -> direct
	}
	if got := arb.Next[2]; len(got) != len(want) {
		t.Fatalf("arbor candidates = %v", got)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("arbor candidate %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
}

// TestValidateRejects pins the bounds checks.
func TestValidateRejects(t *testing.T) {
	good := failover.BuildRotor(0, 3, 2)
	cases := map[string]failover.Table{
		"wrong-node": {Node: 9, Next: good.Next},
		"short":      {Node: 0, Next: good.Next[:2]},
		"self-route": {Node: 0, Next: [][]failover.Hop{{{Rail: 0, Via: 1}}, {{Rail: 0, Via: 0}}, {{Rail: 0, Via: 1}}}},
		"bad-rail":   {Node: 0, Next: [][]failover.Hop{nil, {{Rail: 7, Via: 1}}, {{Rail: 0, Via: 1}}}},
		"via-self":   {Node: 0, Next: [][]failover.Hop{nil, {{Rail: 0, Via: 0}}, {{Rail: 0, Via: 1}}}},
		"via-range":  {Node: 0, Next: [][]failover.Hop{nil, {{Rail: 0, Via: 5}}, {{Rail: 0, Via: 1}}}},
	}
	for name, tab := range cases {
		if err := failover.Validate(tab, 3, 2); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := failover.Validate(good, 3, 2); err != nil {
		t.Error(err)
	}
}

// TestStoppedAndBadArgs covers the router lifecycle edges shared with
// the other baselines.
func TestStoppedAndBadArgs(t *testing.T) {
	c := newCluster(t, 3, rotor)
	if err := c.routers[0].SendData(0, nil); err == nil {
		t.Fatal("send to self accepted")
	}
	if err := c.routers[0].SendData(99, nil); err == nil {
		t.Fatal("send out of range accepted")
	}
	if err := c.routers[0].Start(); err == nil {
		t.Fatal("double start accepted")
	}
	c.routers[0].Stop()
	if err := c.routers[0].SendData(2, nil); !errors.Is(err, routing.ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}

	b := newCluster(t, 3, bounce)
	if err := b.routers[0].SendData(0, nil); err == nil {
		t.Fatal("bounce send to self accepted")
	}
	if err := b.routers[0].Start(); err == nil {
		t.Fatal("bounce double start accepted")
	}
	b.routers[0].Stop()
	if err := b.routers[0].SendData(2, nil); !errors.Is(err, routing.ErrStopped) {
		t.Fatalf("err = %v, want ErrStopped", err)
	}

	if _, err := failover.New(nil, nil, failover.Table{}, failover.Config{}); err == nil {
		t.Fatal("nil transport accepted")
	}
	if _, err := failover.NewBounce(nil, nil, failover.Config{}); err == nil {
		t.Fatal("bounce nil transport accepted")
	}
}

// TestBounceNoRouteWhenIsolated: with every own port dead the bounce
// origin refuses immediately.
func TestBounceNoRouteWhenIsolated(t *testing.T) {
	c := newCluster(t, 3, bounce)
	cl := c.net.Cluster()
	c.net.Fail(cl.NIC(0, 0))
	c.net.Fail(cl.NIC(0, 1))
	if err := c.routers[0].SendData(2, []byte("x")); !errors.Is(err, routing.ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

// TestBounceHopLimit: a header claiming an exhausted hop odometer is
// dropped by the backstop instead of forwarded — defence in depth
// against corrupted or adversarial headers.
func TestBounceHopLimit(t *testing.T) {
	c := newCluster(t, 3, bounce)
	spent := wire.Envelope(wire.ProtoFailover, wire.MarshalFailover(wire.FailoverHeader{
		Origin: 0, Final: 2, Seq: 1, Attempt: 0, Hops: 255,
	}, []byte("x")))
	if err := c.net.Send(0, 0, 1, spent); err != nil {
		t.Fatal(err)
	}
	c.run()
	if len(c.got[2]) != 0 {
		t.Fatalf("delivered = %v, want odometer drop", c.got[2])
	}
	if got := c.routers[1].Metrics().Counter(routing.CtrDataDropped).Value(); got != 1 {
		t.Fatalf("drops at relay = %d, want 1", got)
	}
}
