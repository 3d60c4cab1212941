package core

import (
	"testing"
	"time"

	"drsnet/internal/dataplane"
	"drsnet/internal/linkmon"
	"drsnet/internal/overload"
	"drsnet/internal/routing"
	"drsnet/internal/trace"
)

// overloadConfig is a test base: adaptive RTO on (retransmits exist to
// budget) plus an enabled overload layer the caller tightens.
func overloadConfig(ov overload.Config) Config {
	cfg := DefaultConfig()
	cfg.AdaptiveRTO = linkmon.DefaultRTO()
	cfg.Overload = ov
	return cfg
}

func TestOverloadStatusGauges(t *testing.T) {
	c := newCluster(t, 3, overloadConfig(overload.Default()))
	defer c.stop()
	c.runFor(2 * time.Second)
	s := c.daemons[0].Status()
	if s.Overload == nil {
		t.Fatal("overload enabled but Status().Overload is nil")
	}
	if s.Overload.Degraded {
		t.Fatal("healthy cluster reports degraded mode")
	}
	// No retransmits or discoveries on a healthy cluster: both buckets
	// should still be full.
	if got, want := s.Overload.ProbeTokens, float64(overload.DefaultProbeBurst); got != want {
		t.Fatalf("probe tokens = %v, want %v", got, want)
	}
	if got, want := s.Overload.QueryTokens, float64(overload.DefaultQueryBurst); got != want {
		t.Fatalf("query tokens = %v, want %v", got, want)
	}
	if len(s.Overload.Deferred) != int(dataplane.NumClasses) {
		t.Fatalf("deferred depths = %v, want one per class", s.Overload.Deferred)
	}

	// Disabled layer: the gauge block is absent.
	c2 := newCluster(t, 2, DefaultConfig())
	defer c2.stop()
	c2.runFor(time.Second)
	if s := c2.daemons[0].Status(); s.Overload != nil {
		t.Fatalf("overload disabled but Status().Overload = %+v", s.Overload)
	}
}

func TestOverloadBudgetBoundsRetransmits(t *testing.T) {
	ov := overload.Config{
		Enabled:       true,
		ProbeRate:     0.5,
		ProbeBurst:    2,
		DegradedSheds: -1, // isolate the budget from the governor
	}
	c := newCluster(t, 3, overloadConfig(ov))
	defer c.stop()
	c.runFor(3 * time.Second)

	// Kill node 1 outright: nodes 0 and 2 probe a black hole on both
	// rails, so every RTO expiry wants a retransmit.
	cl := c.net.Cluster()
	c.net.Fail(cl.NIC(1, 0))
	c.net.Fail(cl.NIC(1, 1))
	c.runFor(10 * time.Second)

	m := c.daemons[0].Metrics()
	retrans := m.Counter(routing.CtrProbeRetransmits).Value()
	shed := m.Counter(routing.CtrProbeShed).Value()
	// The bucket admits at most rate·T + burst retransmits over the
	// whole 13 s run.
	if max := int64(0.5*13.0 + 2.5); retrans > max {
		t.Fatalf("retransmits = %d, budget admits at most %d", retrans, max)
	}
	if shed == 0 {
		t.Fatal("dead peer on both rails but no retransmit was ever shed")
	}
	if m.Counter(routing.CtrCtrlDeferred).Value() == 0 {
		t.Fatal("sheds occurred but nothing was deferred to the control queue")
	}
}

func TestOverloadBudgetBoundsDiscovery(t *testing.T) {
	ov := overload.Config{
		Enabled:       true,
		QueryRate:     0.5,
		QueryBurst:    1,
		DegradedSheds: -1,
	}
	c := newCluster(t, 5, overloadConfig(ov))
	defer c.stop()
	c.runFor(3 * time.Second)

	// Cut nodes 2, 3 and 4 off entirely (so no surviving neighbor can
	// offer a stale relay), then keep offering node 4 traffic: every
	// send and every query timeout wants a fresh discovery broadcast.
	cl := c.net.Cluster()
	for _, peer := range []int{2, 3, 4} {
		c.net.Fail(cl.NIC(peer, 0))
		c.net.Fail(cl.NIC(peer, 1))
	}
	c.runFor(2 * time.Second)
	for i := 0; i < 10; i++ {
		if err := c.daemons[0].SendData(4, []byte("x")); err != nil {
			t.Fatal(err)
		}
		c.runFor(time.Second)
	}

	m := c.daemons[0].Metrics()
	sent := m.Counter(routing.CtrQueriesSent).Value()
	// queries.sent counts frames — one per rail per discovery — so the
	// budget bound is (rate·T + burst) · rails for the 15 s run.
	if max := int64(0.5*15.0+1.5) * 2; sent > max {
		t.Fatalf("query frames = %d, budget admits at most %d", sent, max)
	}
	if m.Counter(routing.CtrQueryShed).Value() == 0 {
		t.Fatal("discovery storm but no query was ever shed")
	}
}

func TestOverloadDegradedPinsAndRecovers(t *testing.T) {
	ov := overload.Config{
		Enabled:        true,
		ProbeRate:      0.1,
		ProbeBurst:     1,
		QueryRate:      0.1,
		QueryBurst:     1,
		DegradedSheds:  2,
		DegradedWindow: 4 * time.Second,
		DegradedQuiet:  2 * time.Second,
	}
	cfg := overloadConfig(ov)
	// A high miss threshold keeps the route installed while retransmit
	// sheds pile up, so the eventual teardown happens inside the
	// degraded episode and pins the route instead.
	cfg.MissThreshold = 8
	c := newCluster(t, 3, cfg)
	defer c.stop()
	c.runFor(3 * time.Second)
	if rt := c.daemons[0].RouteTo(2); rt.Kind != RouteDirect {
		t.Fatalf("warm-up route to 2 = %+v", rt)
	}

	cl := c.net.Cluster()
	c.net.Fail(cl.NIC(2, 0))
	c.net.Fail(cl.NIC(2, 1))
	c.runFor(8 * time.Second)

	if !c.daemons[0].Status().Overload.Degraded {
		t.Fatal("storm of shed retransmits did not enter degraded mode")
	}
	if got := c.log.Count(trace.KindDegradedEnter); got == 0 {
		t.Fatal("no degraded-enter event traced")
	}
	// The route to the dead peer is pinned last-known-good, not torn
	// down into a doomed discovery.
	if rt := c.daemons[0].RouteTo(2); rt.Kind != RouteDirect {
		t.Fatalf("degraded route to 2 = %+v, want pinned direct", rt)
	}
	if c.log.Count(trace.KindRoutePinned) == 0 {
		t.Fatal("no route-pinned event traced")
	}
	if got := c.daemons[0].Status().Overload.Pinned; got == 0 {
		t.Fatal("status reports no pinned routes while degraded")
	}

	// Heal. Probes succeed again, sheds stop, and after DegradedQuiet
	// the governor exits and re-evaluates the pins.
	c.net.Restore(cl.NIC(2, 0))
	c.net.Restore(cl.NIC(2, 1))
	c.runFor(8 * time.Second)

	st := c.daemons[0].Status()
	if st.Overload.Degraded {
		t.Fatal("storm healed but degraded mode never exited")
	}
	if st.Overload.Pinned != 0 {
		t.Fatalf("pins survived the degraded exit: %d", st.Overload.Pinned)
	}
	if c.log.Count(trace.KindDegradedExit) == 0 {
		t.Fatal("no degraded-exit event traced")
	}
	if err := c.daemons[0].SendData(2, []byte("post-heal")); err != nil {
		t.Fatal(err)
	}
	c.runFor(time.Second)
	if n := len(c.delivered[2]); n != 1 {
		t.Fatalf("post-heal delivery count = %d", n)
	}
}

func TestOverloadEnabledDeterministic(t *testing.T) {
	run := func() []trace.Event {
		c := newCluster(t, 4, overloadConfig(overload.Default()))
		defer c.stop()
		c.runFor(3 * time.Second)
		cl := c.net.Cluster()
		c.net.Fail(cl.NIC(3, 0))
		c.net.Fail(cl.NIC(3, 1))
		c.runFor(6 * time.Second)
		c.net.Restore(cl.NIC(3, 0))
		c.net.Restore(cl.NIC(3, 1))
		c.runFor(6 * time.Second)
		return c.log.Events()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("trace diverges at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
