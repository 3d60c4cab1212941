package routing

import (
	"testing"
	"time"

	"drsnet/internal/netsim"
	"drsnet/internal/simtime"
	"drsnet/internal/topology"
)

// harness builds an n-node simulated cluster running reactive routers.
type harness struct {
	sched   *simtime.Scheduler
	net     *netsim.Network
	routers []*Reactive
	// delivered[node] collects (src, payload) pairs.
	delivered [][]deliveredMsg
}

type deliveredMsg struct {
	src  int
	data string
}

func newHarness(t *testing.T, n int, cfg ReactiveConfig) *harness {
	t.Helper()
	sched := simtime.NewScheduler()
	net, err := netsim.New(sched, topology.Dual(n), netsim.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{sched: sched, net: net, delivered: make([][]deliveredMsg, n)}
	clock := simtime.Clock{Sched: sched}
	for node := 0; node < n; node++ {
		node := node
		r, err := NewReactive(netsim.NewTransport(net, node), clock, cfg)
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

func (h *harness) runFor(d time.Duration) {
	h.sched.RunUntil(h.sched.Now().Add(d))
}

func (h *harness) stop() {
	for _, r := range h.routers {
		r.Stop()
	}
}

func TestReactiveLearnsAndDelivers(t *testing.T) {
	h := newHarness(t, 4, DefaultReactiveConfig())
	defer h.stop()
	// Let two advertisement rounds pass.
	h.runFor(2100 * time.Millisecond)
	if err := h.routers[0].SendData(3, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	h.runFor(100 * time.Millisecond)
	if len(h.delivered[3]) != 1 || h.delivered[3][0] != (deliveredMsg{0, "hi"}) {
		t.Fatalf("delivered = %v", h.delivered[3])
	}
}

func TestReactiveNoRouteBeforeFirstAdvert(t *testing.T) {
	// Before any advertisement arrives the table is empty. Build the
	// cluster but consult the router immediately (advertisements are
	// in flight but not delivered at time zero).
	h := newHarness(t, 3, DefaultReactiveConfig())
	defer h.stop()
	if err := h.routers[0].SendData(1, []byte("x")); err != ErrNoRoute {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
	if h.routers[0].Metrics().Counter(CtrDataNoRoute).Value() != 1 {
		t.Fatal("noroute not counted")
	}
}

func TestReactiveFailsOverOnlyAfterTimeout(t *testing.T) {
	// The defining reactive behaviour: after the primary-rail NIC of
	// the destination dies, traffic is lost until the stale direct
	// route expires; afterwards the rail-1 route carries it.
	cfg := DefaultReactiveConfig()
	h := newHarness(t, 3, cfg)
	defer h.stop()
	h.runFor(2100 * time.Millisecond)

	c := h.net.Cluster()
	h.net.Fail(c.NIC(1, 0))

	// Immediately after the failure the stale rail-0 route is used
	// and the datagram dies in the network: sent, not delivered.
	if err := h.routers[0].SendData(1, []byte("lost")); err != nil {
		t.Fatalf("stale route should still be used: %v", err)
	}
	h.runFor(200 * time.Millisecond)
	if len(h.delivered[1]) != 0 {
		t.Fatalf("datagram delivered through failed NIC: %v", h.delivered[1])
	}

	// After the timeout the rail-0 entry expires; rail-1 (still
	// refreshed by adverts) takes over.
	h.runFor(cfg.RouteTimeout + time.Second)
	if err := h.routers[0].SendData(1, []byte("recovered")); err != nil {
		t.Fatal(err)
	}
	h.runFor(200 * time.Millisecond)
	if len(h.delivered[1]) != 1 || h.delivered[1][0].data != "recovered" {
		t.Fatalf("delivered = %v", h.delivered[1])
	}
}

func TestReactiveTwoHopRelay(t *testing.T) {
	// Node 0 loses rail 1; node 1 loses rail 0. No direct rail works,
	// but node 2 advertises reachability to both, providing a relay.
	cfg := DefaultReactiveConfig()
	h := newHarness(t, 3, cfg)
	defer h.stop()
	c := h.net.Cluster()
	h.net.Fail(c.NIC(0, 1))
	h.net.Fail(c.NIC(1, 0))
	// Give the stale directs time to expire and fresh state to settle.
	h.runFor(cfg.RouteTimeout + 3*time.Second)

	if err := h.routers[0].SendData(1, []byte("via-relay")); err != nil {
		t.Fatalf("no relay route: %v", err)
	}
	h.runFor(300 * time.Millisecond)
	if len(h.delivered[1]) != 1 || h.delivered[1][0].data != "via-relay" {
		t.Fatalf("delivered = %v", h.delivered[1])
	}
	if h.routers[2].Metrics().Counter(CtrDataForwarded).Value() == 0 {
		t.Fatal("relay did not forward")
	}
}

func TestReactiveTTLExhaustionDrops(t *testing.T) {
	cfg := DefaultReactiveConfig()
	cfg.DataTTL = 1
	h := newHarness(t, 3, cfg)
	defer h.stop()
	c := h.net.Cluster()
	h.net.Fail(c.NIC(0, 1))
	h.net.Fail(c.NIC(1, 0))
	h.runFor(cfg.RouteTimeout + 3*time.Second)
	// Relay route exists, but TTL 1 dies at the relay.
	if err := h.routers[0].SendData(1, []byte("x")); err != nil {
		t.Skipf("no relay route formed: %v", err)
	}
	h.runFor(300 * time.Millisecond)
	if len(h.delivered[1]) != 0 {
		t.Fatal("TTL-1 datagram crossed a relay")
	}
	if h.routers[2].Metrics().Counter(CtrDataDropped).Value() == 0 {
		t.Fatal("relay drop not counted")
	}
}

func TestReactiveStopSilences(t *testing.T) {
	h := newHarness(t, 2, DefaultReactiveConfig())
	h.runFor(1500 * time.Millisecond)
	h.routers[1].Stop()
	if err := h.routers[1].SendData(0, []byte("x")); err != ErrStopped {
		t.Fatalf("err = %v", err)
	}
	sentBefore := h.routers[1].Metrics().Counter(CtrAdvertsSent).Value()
	h.runFor(3 * time.Second)
	if got := h.routers[1].Metrics().Counter(CtrAdvertsSent).Value(); got != sentBefore {
		t.Fatalf("stopped router kept advertising: %d -> %d", sentBefore, got)
	}
	h.routers[0].Stop()
}

func TestReactiveValidation(t *testing.T) {
	sched := simtime.NewScheduler()
	net, err := netsim.New(sched, topology.Dual(2), netsim.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := netsim.NewTransport(net, 0)
	clock := simtime.Clock{Sched: sched}
	if _, err := NewReactive(nil, clock, DefaultReactiveConfig()); err == nil {
		t.Error("nil transport accepted")
	}
	bad := DefaultReactiveConfig()
	bad.AdvertiseInterval = 0
	if _, err := NewReactive(tr, clock, bad); err == nil {
		t.Error("zero interval accepted")
	}
	bad = DefaultReactiveConfig()
	bad.RouteTimeout = bad.AdvertiseInterval / 2
	if _, err := NewReactive(tr, clock, bad); err == nil {
		t.Error("timeout below interval accepted")
	}
	r, err := NewReactive(tr, clock, DefaultReactiveConfig())
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
		t.Error("self destination accepted")
	}
	if err := r.SendData(9, nil); err == nil {
		t.Error("out-of-range destination accepted")
	}
	r.Stop()
}

func TestStaticDeliversAndNeverRecovers(t *testing.T) {
	sched := simtime.NewScheduler()
	net, err := netsim.New(sched, topology.Dual(2), netsim.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var got []deliveredMsg
	a, err := NewStatic(netsim.NewTransport(net, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewStatic(netsim.NewTransport(net, 1), 0)
	if err != nil {
		t.Fatal(err)
	}
	b.SetDeliverFunc(func(src int, data []byte) {
		got = append(got, deliveredMsg{src, string(data)})
	})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	if err := a.SendData(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if len(got) != 1 || got[0].data != "one" {
		t.Fatalf("delivered = %v", got)
	}
	// Fail the pinned rail: static routing never recovers, even though
	// rail 1 is perfectly healthy.
	net.Fail(net.Cluster().Backplane(0))
	if err := a.SendData(1, []byte("two")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if len(got) != 1 {
		t.Fatalf("static router recovered?! %v", got)
	}
}

func TestStaticValidation(t *testing.T) {
	sched := simtime.NewScheduler()
	net, err := netsim.New(sched, topology.Dual(2), netsim.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewStatic(nil, 0); err == nil {
		t.Error("nil transport accepted")
	}
	if _, err := NewStatic(netsim.NewTransport(net, 0), 5); err == nil {
		t.Error("bad rail accepted")
	}
	s, err := NewStatic(netsim.NewTransport(net, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err == nil {
		t.Error("double start accepted")
	}
	s.Stop()
	if err := s.SendData(1, nil); err != ErrStopped {
		t.Errorf("err = %v", err)
	}
}
