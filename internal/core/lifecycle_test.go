package core

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"drsnet/internal/netsim"
	"drsnet/internal/routing"
	"drsnet/internal/routing/wire"
	"drsnet/internal/simtime"
	"drsnet/internal/topology"
	"drsnet/internal/trace"
)

// lifecycleDaemon builds a single daemon on a fresh simulated network,
// for tests that inject crafted control frames directly.
func lifecycleDaemon(t *testing.T, nodes int, cfg Config) (*Daemon, *trace.Log) {
	t.Helper()
	sched := simtime.NewScheduler()
	net, err := netsim.New(sched, topology.Dual(nodes), netsim.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	log := trace.NewLog(0)
	cfg.Trace = log
	d, err := New(netsim.NewTransport(net, 0), simtime.Clock{Sched: sched}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Stop)
	return d, log
}

// TestCheckpointJSONRoundTrip: the warm-start image is plain
// serializable data — a real deployment would persist it across the
// process crash — so it must survive JSON exactly.
func TestCheckpointJSONRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Incarnation = 1
	c := newCluster(t, 3, cfg)
	defer c.stop()
	c.runFor(3 * time.Second)
	c.net.Fail(c.net.Cluster().NIC(1, 0))
	c.runFor(time.Duration(cfg.MissThreshold+2) * cfg.ProbeInterval)

	cp := c.daemons[0].Checkpoint()
	if cp.Node != 0 || cp.Incarnation != 1 || len(cp.Peers) != 2 {
		t.Fatalf("checkpoint header = %+v", cp)
	}
	if cp.TakenAt != c.sched.Now().Duration() {
		t.Fatalf("TakenAt = %v, want %v", cp.TakenAt, c.sched.Now().Duration())
	}
	// The image reflects the failure: route to 1 moved off rail 0, and
	// the dead path is recorded down while the healthy ones carry RTTs.
	var ps *PeerState
	for i := range cp.Peers {
		if cp.Peers[i].Peer == 1 {
			ps = &cp.Peers[i]
		}
	}
	if ps == nil || ps.Route.Kind != RouteDirect || ps.Route.Rail != 1 {
		t.Fatalf("peer-1 state = %+v", ps)
	}
	if ps.Rails[0].Up || !ps.Rails[1].Up {
		t.Fatalf("rail states = %+v", ps.Rails)
	}
	if ps.Rails[1].SRTT <= 0 || ps.Rails[1].Samples == 0 {
		t.Fatalf("healthy rail carries no RTT estimate: %+v", ps.Rails[1])
	}

	blob, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var back Checkpoint
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp, &back) {
		t.Fatalf("round trip changed the checkpoint:\n%+v\n%+v", cp, &back)
	}

	// An image in the older format, written while dynamic membership
	// existed, marks each peer "static". drsd reads images across an
	// upgrade, so such an image must still restore, with every field
	// but the mark intact.
	const legacy = `{"node":0,"incarnation":1,"takenAt":7000000000,"peers":[` +
		`{"peer":1,"static":true,"lastHeard":6000031880,"incarnation":1,"route":{"Kind":1,"Rail":1,"Via":1},` +
		`"rails":[{"up":false,"srtt":47315,"rttvar":22827,"samples":3},{"up":true,"srtt":40929,"rttvar":15552,"samples":7}]},` +
		`{"peer":2,"static":true,"lastHeard":6000038600,"incarnation":1,"route":{"Kind":1,"Rail":0,"Via":2},` +
		`"rails":[{"up":true,"srtt":44704,"rttvar":19931,"samples":7},{"up":true,"srtt":47649,"rttvar":16150,"samples":7}]}]}`
	var old Checkpoint
	if err := json.Unmarshal([]byte(legacy), &old); err != nil {
		t.Fatal(err)
	}
	cfg2 := DefaultConfig()
	cfg2.Incarnation = 2
	cfg2.Restore = &old
	d, err := New(netsim.NewTransport(c.net, 0), simtime.Clock{Sched: c.sched}, cfg2)
	if err != nil {
		t.Fatalf("legacy image rejected: %v", err)
	}
	if rt := d.RouteTo(1); rt.Kind != RouteDirect || rt.Rail != 1 {
		t.Fatalf("legacy route to 1 = %+v, want direct rail 1", rt)
	}
	if got := d.Checkpoint().Peers; !reflect.DeepEqual(got, old.Peers) {
		t.Fatalf("legacy image restored as\n%+v\nwant\n%+v", got, old.Peers)
	}
}

// TestWarmRestoreValidation: a checkpoint that cannot belong to this
// daemon's previous life is rejected at construction.
func TestWarmRestoreValidation(t *testing.T) {
	sched := simtime.NewScheduler()
	net, err := netsim.New(sched, topology.Dual(3), netsim.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := netsim.NewTransport(net, 0)
	clock := simtime.Clock{Sched: sched}
	valid := func() *Checkpoint {
		return &Checkpoint{Node: 0, Incarnation: 1, Peers: []PeerState{
			{Peer: 1, Route: Route{Kind: RouteDirect, Rail: 1, Via: 1}, Rails: make([]RailState, 2)},
		}}
	}
	// The valid baseline is accepted, and so is a relay through the
	// third node.
	cfg := DefaultConfig()
	cfg.Incarnation = 2
	cfg.Restore = valid()
	if _, err := New(tr, clock, cfg); err != nil {
		t.Fatalf("valid checkpoint rejected: %v", err)
	}
	relay := Route{Kind: RouteRelay, Rail: 0, Via: 2}
	cfg.Restore = valid()
	cfg.Restore.Peers[0].Route = relay
	if d, err := New(tr, clock, cfg); err != nil || d.RouteTo(1) != relay {
		t.Fatalf("relay route not restored: err %v", err)
	}

	cases := []struct {
		name        string
		incarnation uint32
		mutate      func(*Checkpoint)
		wantErr     string
	}{
		{"restore without incarnation", 0, func(cp *Checkpoint) {},
			"warm restore requires a nonzero incarnation"},
		{"foreign node", 2, func(cp *Checkpoint) { cp.Node = 1 },
			"checkpoint of node 1 restored on node 0"},
		{"same incarnation", 2, func(cp *Checkpoint) { cp.Incarnation = 2 },
			"not older"},
		{"newer incarnation", 2, func(cp *Checkpoint) { cp.Incarnation = 5 },
			"not older"},
		{"self as peer", 2, func(cp *Checkpoint) { cp.Peers[0].Peer = 0 },
			"invalid for node"},
		{"peer out of range", 2, func(cp *Checkpoint) { cp.Peers[0].Peer = 7 },
			"invalid for node"},
		{"rail count mismatch", 2, func(cp *Checkpoint) { cp.Peers[0].Rails = cp.Peers[0].Rails[:1] },
			"carries 1 rails"},
		{"malformed route", 2, func(cp *Checkpoint) { cp.Peers[0].Route.Rail = 5 },
			"malformed"},
		// In range, but no daemon installs routes of these shapes.
		{"route kind 7", 2, func(cp *Checkpoint) { cp.Peers[0].Route.Kind = 7 },
			"checkpoint route to peer 1 malformed"},
		{"route kind -1", 2, func(cp *Checkpoint) { cp.Peers[0].Route.Kind = -1 },
			"checkpoint route to peer 1 malformed"},
		{"direct via another node", 2, func(cp *Checkpoint) { cp.Peers[0].Route.Via = 2 },
			"checkpoint route to peer 1 malformed"},
		{"relay via the restoring node", 2,
			func(cp *Checkpoint) { cp.Peers[0].Route = Route{Kind: RouteRelay, Rail: 0, Via: 0} },
			"checkpoint route to peer 1 malformed"},
		{"relay via the peer", 2,
			func(cp *Checkpoint) { cp.Peers[0].Route = Route{Kind: RouteRelay, Rail: 0, Via: 1} },
			"checkpoint route to peer 1 malformed"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		cfg.Incarnation = tc.incarnation
		cfg.Restore = valid()
		tc.mutate(cfg.Restore)
		_, err := New(tr, clock, cfg)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

// TestWarmRestoreSeedsPreviousLife is the core of warm recovery: a
// daemon rebuilt from its predecessor's checkpoint opens with the old
// route table, link states and RTT estimates instead of re-learning
// them, and the restored route is visible in the trace before the
// first probe round runs.
func TestWarmRestoreSeedsPreviousLife(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Incarnation = 1
	c := newCluster(t, 3, cfg)
	defer c.stop()
	c.runFor(3 * time.Second)
	c.net.Fail(c.net.Cluster().NIC(1, 0))
	c.runFor(time.Duration(cfg.MissThreshold+2) * cfg.ProbeInterval)
	if rt := c.daemons[0].RouteTo(1); rt.Kind != RouteDirect || rt.Rail != 1 {
		t.Fatalf("pre-crash route = %+v, want direct rail 1", rt)
	}

	// Crash node 0: checkpoint, stop, rebuild warm in the next life.
	cp := c.daemons[0].Checkpoint()
	c.daemons[0].Stop()
	cfg2 := cfg
	cfg2.Incarnation = 2
	cfg2.Restore = cp
	cfg2.Trace = c.log
	d, err := New(netsim.NewTransport(c.net, 0), simtime.Clock{Sched: c.sched}, cfg2)
	if err != nil {
		t.Fatal(err)
	}

	// Before the daemon even starts, the previous life's knowledge is
	// back: the failed-over route, the dead rail, the RTT estimates.
	if rt := d.RouteTo(1); rt.Kind != RouteDirect || rt.Rail != 1 {
		t.Fatalf("restored route = %+v, want direct rail 1", rt)
	}
	if d.LinkUp(1, 0) {
		t.Fatal("dead rail restored as up")
	}
	if !d.LinkUp(1, 1) {
		t.Fatal("healthy rail restored as down")
	}
	got, ok := d.RTT(1, 1)
	if !ok {
		t.Fatal("RTT estimate not restored")
	}
	var want RailState
	for _, ps := range cp.Peers {
		if ps.Peer == 1 {
			want = ps.Rails[1]
		}
	}
	if got.SRTT != want.SRTT || got.RTTVar != want.RTTVar || got.Samples != want.Samples {
		t.Fatalf("restored RTT = %+v, checkpointed %+v", got, want)
	}

	// Exactly one warm-restore trace event: the failed-over route to 1.
	// The route to 2 matches the cold default and is not re-announced.
	restores := 0
	for _, e := range c.log.Events() {
		if e.Kind == trace.KindRouteInstalled && strings.Contains(e.Detail, "warm restore") {
			restores++
			if e.Node != 0 || e.Peer != 1 || e.Rail != 1 {
				t.Fatalf("warm restore event = %+v", e)
			}
		}
	}
	if restores != 1 {
		t.Fatalf("warm restore events = %d, want 1", restores)
	}

	// The new life runs: traffic flows on the restored route at once.
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	c.daemons[0] = d
	if err := d.SendData(1, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	c.runFor(100 * time.Millisecond)
	if len(c.delivered[1]) != 1 || c.delivered[1][0].data != "warm" {
		t.Fatalf("delivered = %v", c.delivered[1])
	}
}

// TestStaleOfferRace is the out-of-order-delivery race the incarnation
// stamp exists for: a route offer issued by a relay's previous life
// arrives after the relay rebooted. Accepting it would install a route
// the relay's current life does not hold.
func TestStaleOfferRace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Incarnation = 1
	d, _ := lifecycleDaemon(t, 3, cfg)

	// Learn the two peers' lives from their rejoin broadcasts: node 1
	// (the target) and node 2, whose current life is incarnation 5.
	d.onControl(0, 1, wire.MarshalRejoin(1))
	d.onControl(0, 2, wire.MarshalRejoin(5))

	// Node 1 becomes unreachable; a send queues and opens discovery.
	d.mu.Lock()
	d.links.State(1, 0).Up = false
	d.links.State(1, 1).Up = false
	d.routes.SetRoute(1, Route{Kind: RouteNone})
	d.mu.Unlock()
	if err := d.SendData(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	q, ok := d.routes.Pending(1)
	d.mu.Unlock()
	if !ok {
		t.Fatal("send did not open a discovery")
	}

	// A delayed offer from node 2's incarnation 3 — two lives ago —
	// arrives with the matching discovery sequence. Without the stamp
	// this is indistinguishable from a valid answer.
	stale := wire.Offer{Origin: 0, Target: 1, Seq: q.Seq, Relay: 2}
	d.onControl(0, 2, wire.MarshalOfferInc(stale, 3))
	if got := d.Metrics().Counter(routing.CtrStaleControl).Value(); got != 1 {
		t.Fatalf("control.stale = %d, want 1", got)
	}
	if rt := d.RouteTo(1); rt.Kind != RouteNone {
		t.Fatalf("stale offer installed route %+v", rt)
	}

	// The same offer stamped with the current life is accepted.
	d.onControl(0, 2, wire.MarshalOfferInc(stale, 5))
	if rt := d.RouteTo(1); rt.Kind != RouteRelay || rt.Via != 2 {
		t.Fatalf("current-life offer rejected: route = %+v", rt)
	}

	// A later offer stamped with incarnation 6 (the rejoin broadcast
	// was lost) purges the relay route installed against life 5.
	d.onControl(0, 2, wire.MarshalOfferInc(stale, 6))
	if rt := d.RouteTo(1); rt.Kind == RouteRelay && rt.Via == 2 {
		t.Fatal("relay route survived the relay's reboot")
	}
}

// TestRejoinPurgesRelayRoutes pins the rejoin handshake's semantics:
// the first sighting of a peer purges nothing, a genuine reboot purges
// every route relaying through the peer's previous life, and duplicate
// rejoins are idempotent.
func TestRejoinPurgesRelayRoutes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Incarnation = 1
	d, log := lifecycleDaemon(t, 4, cfg)

	// Route to 3 relays through 2; no direct rail to 3 works.
	d.mu.Lock()
	d.links.State(3, 0).Up = false
	d.links.State(3, 1).Up = false
	d.routes.SetRoute(3, Route{Kind: RouteRelay, Rail: 0, Via: 2})
	d.mu.Unlock()

	rejoined := func() int {
		n := 0
		for _, e := range log.Events() {
			if e.Kind == trace.KindPeerRejoined {
				n++
			}
		}
		return n
	}

	// First sighting (cluster start): record the incarnation, purge
	// nothing — tearing down good routes on first contact would make
	// every cold boot a routing event.
	d.onControl(0, 2, wire.MarshalRejoin(1))
	if rt := d.RouteTo(3); rt.Kind != RouteRelay || rt.Via != 2 {
		t.Fatalf("first rejoin purged the relay route: %+v", rt)
	}
	if rejoined() != 0 {
		t.Fatal("first sighting logged as a rejoin")
	}

	// The relay reboots: its state is gone, the route must go too.
	d.onControl(0, 2, wire.MarshalRejoin(2))
	if rt := d.RouteTo(3); rt.Kind == RouteRelay && rt.Via == 2 {
		t.Fatal("reboot left the relay route installed")
	}
	if rejoined() != 1 {
		t.Fatalf("rejoin events = %d, want 1", rejoined())
	}
	var ev trace.Event
	for _, e := range log.Events() {
		if e.Kind == trace.KindPeerRejoined {
			ev = e
		}
	}
	if ev.Peer != 2 || !strings.Contains(ev.Detail, "incarnation 1->2") {
		t.Fatalf("rejoin event = %+v", ev)
	}

	// A duplicate of the same rejoin (broadcast on two rails) is a
	// no-op.
	d.onControl(1, 2, wire.MarshalRejoin(2))
	if rejoined() != 1 {
		t.Fatal("duplicate rejoin double-counted")
	}
}
