package routing

import (
	"testing"
	"time"

	"drsnet/internal/netsim"
	"drsnet/internal/simtime"
	"drsnet/internal/topology"
)

type lsHarness struct {
	sched     *simtime.Scheduler
	net       *netsim.Network
	routers   []*LinkState
	delivered [][]deliveredMsg
}

func newLSHarness(t *testing.T, n int, cfg LinkStateConfig) *lsHarness {
	t.Helper()
	sched := simtime.NewScheduler()
	net, err := netsim.New(sched, topology.Dual(n), netsim.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	h := &lsHarness{sched: sched, net: net, delivered: make([][]deliveredMsg, n)}
	clock := simtime.Clock{Sched: sched}
	for node := 0; node < n; node++ {
		node := node
		r, err := NewLinkState(netsim.NewTransport(net, node), clock, cfg)
		if err != nil {
			t.Fatal(err)
		}
		r.SetDeliverFunc(func(src int, data []byte) {
			h.delivered[node] = append(h.delivered[node], deliveredMsg{src, string(data)})
		})
		h.routers = append(h.routers, r)
	}
	for _, r := range h.routers {
		if err := r.Start(); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func (h *lsHarness) runFor(d time.Duration) { h.sched.RunUntil(h.sched.Now().Add(d)) }

func (h *lsHarness) stop() {
	for _, r := range h.routers {
		r.Stop()
	}
}

func TestLinkStateConvergesAndDelivers(t *testing.T) {
	h := newLSHarness(t, 5, DefaultLinkStateConfig())
	defer h.stop()
	h.runFor(3 * time.Second)
	for a := 0; a < 5; a++ {
		for b := 0; b < 5; b++ {
			if a == b {
				continue
			}
			via, _, ok := h.routers[a].RouteVia(b)
			if !ok {
				t.Fatalf("%d has no route to %d after convergence", a, b)
			}
			if via != b {
				t.Fatalf("%d routes to %d via %d on a healthy network, want direct", a, b, via)
			}
		}
	}
	if err := h.routers[0].SendData(4, []byte("spf")); err != nil {
		t.Fatal(err)
	}
	h.runFor(200 * time.Millisecond)
	if len(h.delivered[4]) != 1 || h.delivered[4][0].data != "spf" {
		t.Fatalf("delivered = %v", h.delivered[4])
	}
}

func TestLinkStateNICFailureRecoversAfterDeadInterval(t *testing.T) {
	cfg := DefaultLinkStateConfig()
	h := newLSHarness(t, 4, cfg)
	defer h.stop()
	h.runFor(3 * time.Second)

	failAt := h.sched.Now().Duration()
	h.net.Fail(h.net.Cluster().NIC(1, 0))

	// Immediately after: the stale SPF still points into the dead
	// rail; traffic is lost (the reactive signature).
	_ = h.routers[0].SendData(1, []byte("lost"))
	h.runFor(100 * time.Millisecond)
	if len(h.delivered[1]) != 0 {
		t.Fatal("datagram crossed a dead NIC")
	}

	// After the dead interval the adjacency expires, LSAs re-flood,
	// SPF moves to rail 1.
	h.runFor(cfg.DeadInterval + 2*cfg.HelloInterval)
	via, rail, ok := h.routers[0].RouteVia(1)
	if !ok || via != 1 || rail != 1 {
		t.Fatalf("route after recovery: via=%d rail=%d ok=%v", via, rail, ok)
	}
	recoveredBy := h.sched.Now().Duration() - failAt
	if recoveredBy > cfg.DeadInterval+3*cfg.HelloInterval {
		t.Fatalf("recovery took %v", recoveredBy)
	}
	if err := h.routers[0].SendData(1, []byte("back")); err != nil {
		t.Fatal(err)
	}
	h.runFor(200 * time.Millisecond)
	if len(h.delivered[1]) != 1 || h.delivered[1][0].data != "back" {
		t.Fatalf("delivered = %v", h.delivered[1])
	}
}

func TestLinkStateCrossRailMultiHop(t *testing.T) {
	// Node 0 keeps rail 1 only, node 1 keeps rail 0 only: SPF must
	// route through an intermediate with both rails.
	cfg := DefaultLinkStateConfig()
	h := newLSHarness(t, 4, cfg)
	defer h.stop()
	cl := h.net.Cluster()
	h.net.Fail(cl.NIC(0, 0))
	h.net.Fail(cl.NIC(1, 1))
	h.runFor(cfg.DeadInterval + 4*cfg.HelloInterval)

	via, _, ok := h.routers[0].RouteVia(1)
	if !ok {
		t.Fatal("no SPF route across the rails")
	}
	if via == 1 {
		t.Fatal("SPF claims a direct route that cannot exist")
	}
	if err := h.routers[0].SendData(1, []byte("two-hop")); err != nil {
		t.Fatal(err)
	}
	h.runFor(300 * time.Millisecond)
	if len(h.delivered[1]) != 1 {
		t.Fatalf("delivered = %v", h.delivered[1])
	}
	forwarded := h.routers[2].Metrics().Counter(CtrDataForwarded).Value() +
		h.routers[3].Metrics().Counter(CtrDataForwarded).Value()
	if forwarded == 0 {
		t.Fatal("no forwarding on a two-hop SPF path")
	}
}

func TestLinkStateFloodingTerminates(t *testing.T) {
	// LSAs are re-flooded only on a new sequence number; run long and
	// confirm the advert volume grows linearly, not explosively.
	cfg := DefaultLinkStateConfig()
	h := newLSHarness(t, 5, cfg)
	defer h.stop()
	count := func() int64 {
		var recv int64
		for _, r := range h.routers {
			recv += r.Metrics().Counter(CtrAdvertsRecv).Value()
		}
		return recv
	}
	h.runFor(10 * time.Second)
	at10 := count()
	if at10 == 0 {
		t.Fatal("no LSAs exchanged")
	}
	h.runFor(10 * time.Second)
	at20 := count()
	// Terminating flooding grows linearly with time (refresh-driven);
	// a flood loop would grow explosively. Allow generous slack for
	// the startup burst in the first window.
	if ratio := float64(at20) / float64(at10); ratio > 2.5 {
		t.Fatalf("LSA volume grew %.1f× across a time doubling — flooding not terminating", ratio)
	}
}

func TestLinkStateDeadNodeAgesOut(t *testing.T) {
	cfg := DefaultLinkStateConfig()
	h := newLSHarness(t, 3, cfg)
	defer h.stop()
	h.runFor(3 * time.Second)
	// Node 2 vanishes (both NICs) — after MaxAge its LSA is gone and
	// routes to it disappear.
	cl := h.net.Cluster()
	h.net.Fail(cl.NIC(2, 0))
	h.net.Fail(cl.NIC(2, 1))
	h.runFor(cfg.LSAMaxAge + 3*cfg.HelloInterval)
	if _, _, ok := h.routers[0].RouteVia(2); ok {
		t.Fatal("route to a long-dead node survived MaxAge")
	}
	if err := h.routers[0].SendData(2, []byte("x")); err != ErrNoRoute {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
}

func TestLinkStateValidation(t *testing.T) {
	sched := simtime.NewScheduler()
	net, err := netsim.New(sched, topology.Dual(2), netsim.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := netsim.NewTransport(net, 0)
	clock := simtime.Clock{Sched: sched}
	if _, err := NewLinkState(nil, clock, DefaultLinkStateConfig()); err == nil {
		t.Error("nil transport accepted")
	}
	bad := DefaultLinkStateConfig()
	bad.HelloInterval = 0
	if _, err := NewLinkState(tr, clock, bad); err == nil {
		t.Error("zero hello accepted")
	}
	bad = DefaultLinkStateConfig()
	bad.DeadInterval = bad.HelloInterval / 2
	if _, err := NewLinkState(tr, clock, bad); err == nil {
		t.Error("dead < hello accepted")
	}
	bad = DefaultLinkStateConfig()
	bad.LSAMaxAge = bad.DeadInterval / 2
	if _, err := NewLinkState(tr, clock, bad); err == nil {
		t.Error("maxage < dead accepted")
	}
	r, err := NewLinkState(tr, clock, DefaultLinkStateConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err == nil {
		t.Error("double start accepted")
	}
	if err := r.SendData(0, nil); err == nil {
		t.Error("self send accepted")
	}
	r.Stop()
	if err := r.SendData(1, nil); err != ErrStopped {
		t.Errorf("send after stop: %v", err)
	}
}

func TestLinkStateTTLBoundsForwarding(t *testing.T) {
	cfg := DefaultLinkStateConfig()
	cfg.DataTTL = 1
	h := newLSHarness(t, 4, cfg)
	defer h.stop()
	cl := h.net.Cluster()
	h.net.Fail(cl.NIC(0, 0))
	h.net.Fail(cl.NIC(1, 1))
	h.runFor(cfg.DeadInterval + 4*cfg.HelloInterval)
	if _, _, ok := h.routers[0].RouteVia(1); !ok {
		t.Skip("no multi-hop route formed")
	}
	if err := h.routers[0].SendData(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	h.runFor(300 * time.Millisecond)
	if len(h.delivered[1]) != 0 {
		t.Fatal("TTL-1 datagram crossed a relay")
	}
}

func TestLinkStateManyFailuresMatchReachability(t *testing.T) {
	// After convergence, SPF routes must exist exactly for reachable
	// nodes (per the conn predicate's semantics of rails+NICs).
	cfg := DefaultLinkStateConfig()
	h := newLSHarness(t, 6, cfg)
	defer h.stop()
	h.runFor(3 * time.Second)
	cl := h.net.Cluster()
	h.net.Fail(cl.NIC(0, 0))
	h.net.Fail(cl.NIC(3, 1))
	h.net.Fail(cl.Backplane(1))
	// Now: node 0 has no live rail attachment except rail... NIC(0,0)
	// dead + backplane 1 dead → node 0 fully detached. Node 3 is fine
	// on rail 0.
	h.runFor(cfg.LSAMaxAge + 5*cfg.HelloInterval)
	if _, _, ok := h.routers[1].RouteVia(0); ok {
		t.Fatal("route to a detached node")
	}
	if _, _, ok := h.routers[1].RouteVia(3); !ok {
		t.Fatal("no route to a reachable node")
	}
	if err := h.routers[1].SendData(3, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	h.runFor(200 * time.Millisecond)
	if len(h.delivered[3]) != 1 {
		t.Fatal("reachable node did not receive")
	}
}

func TestLinkStateQueueOverflowDropsOldest(t *testing.T) {
	// With QueueCapacity set, a routeless SendData queues instead of
	// failing; overflow evicts the oldest datagram deterministically
	// and the survivors flush in order once SPF finds a route again.
	cfg := DefaultLinkStateConfig()
	cfg.QueueCapacity = 3
	h := newLSHarness(t, 3, cfg)
	defer h.stop()
	h.runFor(3 * time.Second)

	cl := h.net.Cluster()
	nic0, nic1 := cl.NIC(1, 0), cl.NIC(1, 1)
	h.net.Fail(nic0)
	h.net.Fail(nic1)
	h.runFor(cfg.DeadInterval + 2*cfg.HelloInterval)
	if _, _, ok := h.routers[0].RouteVia(1); ok {
		t.Fatal("route to isolated node survived the dead interval")
	}

	for i := 0; i < cfg.QueueCapacity+2; i++ {
		if err := h.routers[0].SendData(1, []byte{byte(i)}); err != nil {
			t.Fatalf("send %d failed: %v", i, err)
		}
	}
	m := h.routers[0].Metrics()
	if got := m.Counter(CtrQueueOverflow).Value(); got != 2 {
		t.Fatalf("queue.overflow = %d, want 2", got)
	}
	if got := m.Counter(CtrDataNoRoute).Value(); got != 0 {
		t.Fatalf("data.noroute = %d, want 0 with queueing enabled", got)
	}

	// Repair: adjacency reforms, SPF reinstalls the route, and exactly
	// the three freshest datagrams arrive, oldest-first.
	h.net.Restore(nic0)
	h.net.Restore(nic1)
	h.runFor(3 * cfg.HelloInterval)
	got := h.delivered[1]
	if len(got) != cfg.QueueCapacity {
		t.Fatalf("%d datagrams delivered after repair, want %d: %v", len(got), cfg.QueueCapacity, got)
	}
	for i, msg := range got {
		if want := string([]byte{byte(i + 2)}); msg.src != 0 || msg.data != want {
			t.Fatalf("delivery %d = %+v, want payload %q from 0", i, msg, want)
		}
	}
}
