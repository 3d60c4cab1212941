package core

import (
	"testing"
	"time"

	"drsnet/internal/clock"
	"drsnet/internal/netsim"
	"drsnet/internal/rng"
	"drsnet/internal/routing"
	"drsnet/internal/routing/wire"
	"drsnet/internal/simtime"
	"drsnet/internal/topology"
	"drsnet/internal/transport"
)

// lossyCluster builds a cluster over a network with random frame loss.
func lossyCluster(t *testing.T, n int, lossRate float64, cfg Config) *cluster {
	t.Helper()
	sched := simtime.NewScheduler()
	params := netsim.DefaultParams()
	params.LossRate = lossRate
	net, err := netsim.New(sched, topology.Dual(n), params, 7)
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

func TestMissThresholdAbsorbsFrameLoss(t *testing.T) {
	// 5% random loss, threshold 2: the probability of two consecutive
	// probe losses on a link is 1 - (1-l)^2-ish per pair of rounds...
	// strictly, a false down needs both the request/reply pair of two
	// consecutive rounds to vanish (p ≈ (1-0.95²)² ≈ 0.0095 per two
	// rounds per link). Over a short run, most links must stay up and
	// any that flap must recover.
	cfg := DefaultConfig()
	cfg.MissThreshold = 2
	c := lossyCluster(t, 4, 0.05, cfg)
	defer c.stop()
	c.runFor(30 * time.Second)

	// The steady state after the run: every link should be up again
	// even if a flap happened (the next successful probe restores it).
	c.runFor(5 * time.Second)
	downLinks := 0
	for node, d := range c.daemons {
		for peer := 0; peer < 4; peer++ {
			if peer == node {
				continue
			}
			for rail := 0; rail < 2; rail++ {
				if !d.LinkUp(peer, rail) {
					downLinks++
				}
			}
		}
	}
	if downLinks > 2 {
		t.Fatalf("%d links believed down on a lossy-but-healthy network", downLinks)
	}
}

func TestMissThresholdOneFalsePositivesUnderLoss(t *testing.T) {
	// The ablation behind the MissThreshold default: with threshold 1
	// every single lost probe exchange flags the link, so a lossy
	// network sees far more link-down transitions than with
	// threshold 2 on the very same loss process.
	flaps := func(threshold int) int64 {
		cfg := DefaultConfig()
		cfg.MissThreshold = threshold
		c := lossyCluster(t, 4, 0.05, cfg)
		defer c.stop()
		c.runFor(60 * time.Second)
		var n int64
		for _, d := range c.daemons {
			n += d.Metrics().Counter(routing.CtrLinkDown).Value()
		}
		return n
	}
	f1 := flaps(1)
	f2 := flaps(2)
	if f1 == 0 {
		t.Fatal("threshold 1 saw no flaps at 5% loss — loss injection broken?")
	}
	if f2*3 > f1 {
		t.Fatalf("threshold 2 (%d flaps) not clearly more robust than threshold 1 (%d)", f2, f1)
	}
}

func TestDataStillFlowsUnderLoss(t *testing.T) {
	cfg := DefaultConfig()
	c := lossyCluster(t, 3, 0.05, cfg)
	defer c.stop()
	c.runFor(3 * time.Second)
	sent := 0
	for i := 0; i < 200; i++ {
		if err := c.daemons[0].SendData(1, []byte("x")); err == nil {
			sent++
		}
		c.runFor(100 * time.Millisecond)
	}
	got := len(c.delivered[1])
	if got < sent*80/100 {
		t.Fatalf("delivered %d of %d under 5%% loss", got, sent)
	}
}

func TestDuplicateQueriesAnsweredOnce(t *testing.T) {
	// A route query is broadcast on both rails, so relays hear it
	// twice; the dedupe cache must keep them from offering twice.
	cfg := DefaultConfig()
	c := newCluster(t, 3, cfg)
	defer c.stop()
	c.runFor(3 * time.Second)
	cl := c.net.Cluster()
	c.net.Fail(cl.NIC(0, 0))
	c.net.Fail(cl.NIC(1, 1))
	c.runFor(time.Duration(cfg.MissThreshold+3) * cfg.ProbeInterval)

	offers := c.daemons[2].Metrics().Counter(routing.CtrOffersSent).Value()
	queriesRecv := c.daemons[2].Metrics().Counter(routing.CtrQueriesRecv).Value()
	if offers == 0 {
		t.Fatal("relay never offered")
	}
	if offers > queriesRecv {
		t.Fatalf("more offers (%d) than queries received (%d)", offers, queriesRecv)
	}
	// Both endpoints query (each lost its path to the other); node 2
	// must offer at most once per distinct discovery, not once per
	// rail copy. Queries go out on both live rails, but with node 0
	// only on rail 1 and node 1 only on rail 0, each discovery
	// reaches node 2 exactly once per rail it was broadcast on —
	// hence the dedupe cache is what keeps offers ≤ discoveries.
	discoveries := (c.daemons[0].Metrics().Counter(routing.CtrQueriesSent).Value() +
		c.daemons[1].Metrics().Counter(routing.CtrQueriesSent).Value()) / 2
	if discoveries == 0 {
		discoveries = 1
	}
	if offers > discoveries {
		t.Fatalf("relay offered %d times for %d discoveries — dedupe broken", offers, discoveries)
	}
}

func TestStaleOfferIgnored(t *testing.T) {
	cfg := DefaultConfig()
	c := newCluster(t, 3, cfg)
	defer c.stop()
	c.runFor(2 * time.Second)

	// Hand-craft an unsolicited offer to node 0 claiming node 2
	// relays to node 1; with no pending discovery it must be ignored.
	offer := wire.Offer{Origin: 0, Target: 1, Seq: 999, Relay: 2}
	payload := wire.Envelope(wire.ProtoControl, wire.MarshalOffer(offer))
	if err := c.net.Send(2, 0, 0, payload); err != nil {
		t.Fatal(err)
	}
	c.runFor(100 * time.Millisecond)
	rt := c.daemons[0].RouteTo(1)
	if rt.Kind != RouteDirect {
		t.Fatalf("unsolicited offer installed a route: %+v", rt)
	}
}

func TestMalformedFramesIgnored(t *testing.T) {
	cfg := DefaultConfig()
	c := newCluster(t, 2, cfg)
	defer c.stop()
	c.runFor(time.Second)
	garbage := [][]byte{
		nil,
		{},
		{0xff},
		{wire.ProtoICMP},              // empty ICMP
		{wire.ProtoICMP, 1, 2, 3},     // truncated ICMP
		{wire.ProtoControl},           // empty control
		{wire.ProtoControl, 99, 1, 2}, // unknown control type
		{wire.ProtoControl, 1, 0},     // truncated query
		{wire.ProtoData, 1, 2, 3},     // truncated data header
		wire.Envelope(wire.ProtoData, // data to an absurd final
			wire.MarshalData(wire.DataHeader{Origin: 0, Final: 9999, TTL: 3}, nil)),
	}
	for _, g := range garbage {
		if len(g) == 0 {
			// net.Send requires a payload slice; zero-length is fine.
			g = []byte{}
		}
		if err := c.net.Send(0, 0, 1, g); err != nil {
			t.Fatal(err)
		}
	}
	c.runFor(2 * time.Second) // must not panic, links must stay up
	if !c.daemons[1].LinkUp(0, 0) {
		t.Fatal("garbage frames perturbed link state")
	}
}

func TestForwardingTTLBoundary(t *testing.T) {
	// A data frame arriving at a relay with TTL 1 must be dropped,
	// not forwarded with TTL 0.
	cfg := DefaultConfig()
	c := newCluster(t, 3, cfg)
	defer c.stop()
	c.runFor(2 * time.Second)

	h := wire.DataHeader{Origin: 0, Final: 1, TTL: 1, Seq: 42}
	payload := wire.Envelope(wire.ProtoData, wire.MarshalData(h, []byte("doomed")))
	// Deliver it to node 2 (not the final destination).
	if err := c.net.Send(0, 0, 2, payload); err != nil {
		t.Fatal(err)
	}
	c.runFor(500 * time.Millisecond)
	if len(c.delivered[1]) != 0 {
		t.Fatal("TTL-1 frame crossed a relay")
	}
	if c.daemons[2].Metrics().Counter(routing.CtrDataDropped).Value() == 0 {
		t.Fatal("drop not counted")
	}
}

func TestSeenQueryCacheGC(t *testing.T) {
	// Flood a daemon with unique queries; the dedupe cache must stay
	// bounded (the GC triggers at 4096 entries and evicts expired
	// ones).
	cfg := DefaultConfig()
	cfg.ProbeInterval = 10 * time.Millisecond // fast expiry: 10×10ms
	c := newCluster(t, 3, cfg)
	defer c.stop()
	c.runFor(100 * time.Millisecond)
	for i := 0; i < 6000; i++ {
		q := wire.Query{Origin: 1, Target: 2, Seq: uint32(i), TTL: 1}
		payload := wire.Envelope(wire.ProtoControl, wire.MarshalQuery(q))
		if err := c.net.Send(1, 0, 0, payload); err != nil {
			t.Fatal(err)
		}
		if i%500 == 0 {
			c.runFor(200 * time.Millisecond) // let entries expire
		}
	}
	c.runFor(time.Second)
	c.daemons[0].mu.Lock()
	size := c.daemons[0].routes.SeenSize()
	c.daemons[0].mu.Unlock()
	if size > 5000 {
		t.Fatalf("seen-query cache grew to %d entries", size)
	}
}

func TestChainedRelayDiscoveryAcrossThreeRails(t *testing.T) {
	// A three-rail topology where no single server touches both
	// endpoints' live rails: A(0) keeps only rail 0, B(1) keeps only
	// rail 2, node 2 bridges rails 0–1, node 3 bridges rails 1–2.
	// Connectivity requires the two-hop chain A→2→3→B. The DRS gets
	// there by chaining discoveries: node 3 offers node 2 a relay to
	// B, after which node 2 can itself answer A's query with its
	// relay route.
	shape := topology.Cluster{Nodes: 4, Rails: 3}
	cfg := DefaultConfig()
	c := newClusterShape(t, shape, cfg)
	defer c.stop()
	cl := c.net.Cluster()
	c.runFor(3 * time.Second)
	c.net.Fail(cl.NIC(0, 1))
	c.net.Fail(cl.NIC(0, 2))
	c.net.Fail(cl.NIC(1, 0))
	c.net.Fail(cl.NIC(1, 1))
	c.net.Fail(cl.NIC(2, 2))
	c.net.Fail(cl.NIC(3, 0))
	// Let every daemon's own discovery settle (node 2 must learn its
	// relay to B before it can answer A).
	c.runFor(time.Duration(cfg.MissThreshold+6) * cfg.ProbeInterval)

	if err := c.daemons[0].SendData(1, []byte("chain")); err != nil {
		t.Fatalf("send failed: %v", err)
	}
	c.runFor(4 * cfg.ProbeInterval)
	if len(c.delivered[1]) != 1 {
		t.Fatalf("chained relay delivered %d messages, want 1", len(c.delivered[1]))
	}
	// The frame must genuinely have crossed both relays.
	f2 := c.daemons[2].Metrics().Counter(routing.CtrDataForwarded).Value()
	f3 := c.daemons[3].Metrics().Counter(routing.CtrDataForwarded).Value()
	if f2 == 0 || f3 == 0 {
		t.Fatalf("chain not exercised: forwards node2=%d node3=%d", f2, f3)
	}
}

func TestProbeSeqWraparound(t *testing.T) {
	// The echo sequence counter is uint16 and wraps after ~65k probes;
	// matching must keep working across the wrap.
	cfg := DefaultConfig()
	cfg.ProbeInterval = 100 * time.Millisecond
	c := newCluster(t, 2, cfg)
	defer c.stop()
	// Jump the counters to the brink of the wrap on both daemons.
	for _, d := range c.daemons {
		d.mu.Lock()
		d.links.SetSeq(65530)
		d.mu.Unlock()
	}
	c.runFor(10 * time.Second) // ~100 rounds × 2 probes: well past the wrap
	// Node 0 requests for the pair; node 1 answers and stops numbering
	// probes once it has heard node 0's first requests.
	d := c.daemons[0]
	d.mu.Lock()
	seq := d.links.Seq()
	d.mu.Unlock()
	if seq >= 65530 {
		t.Fatalf("sequence did not wrap (%d)", seq)
	}
	for _, d := range c.daemons {
		if d.Metrics().Counter(routing.CtrLinkDown).Value() != 0 {
			t.Fatal("wraparound caused spurious link-down")
		}
	}
	if !c.daemons[0].LinkUp(1, 0) || !c.daemons[0].LinkUp(1, 1) {
		t.Fatal("links down after wraparound")
	}
}

func TestMonitoringEventuallyConsistent(t *testing.T) {
	// Churn components at random for a while, stop, let the daemons
	// settle, then demand exact agreement between every daemon's
	// monitored link state and the network's ground truth — the
	// eventual-consistency property behind the whole protocol.
	if testing.Short() {
		t.Skip("soak test in -short mode")
	}
	cfg := DefaultConfig()
	c := newCluster(t, 6, cfg)
	defer c.stop()
	cl := c.net.Cluster()
	r := rng.New(31)
	for round := 0; round < 40; round++ {
		comp := topology.Component(r.Intn(cl.Components()))
		if r.Intn(2) == 0 {
			c.net.Fail(comp)
		} else {
			c.net.Restore(comp)
		}
		c.runFor(700 * time.Millisecond)
	}
	// Stop churning; restore nothing. Let detection and recovery
	// settle fully.
	c.runFor(time.Duration(cfg.MissThreshold+4) * cfg.ProbeInterval)

	for node, d := range c.daemons {
		selfUp := func(rail int) bool {
			return c.net.ComponentUp(cl.NIC(node, rail)) && c.net.ComponentUp(cl.Backplane(rail))
		}
		for peer := 0; peer < 6; peer++ {
			if peer == node {
				continue
			}
			for rail := 0; rail < 2; rail++ {
				truth := selfUp(rail) && c.net.ComponentUp(cl.NIC(peer, rail))
				if got := d.LinkUp(peer, rail); got != truth {
					t.Errorf("node %d view of (%d,%d) = %v, ground truth %v (failed: %v)",
						node, peer, rail, got, truth, c.net.FailedComponents())
				}
			}
		}
	}
}

// sizedTransport is a transport to nowhere of a given cluster size,
// enough for New.
type sizedTransport struct{ nodes int }

func (s sizedTransport) Node() int                                       { return 0 }
func (s sizedTransport) Nodes() int                                      { return s.nodes }
func (s sizedTransport) Rails() int                                      { return 2 }
func (s sizedTransport) Send(int, int, []byte) error                     { return nil }
func (s sizedTransport) SetReceiver(func(rail, src int, payload []byte)) {}

// New's allocation count does not grow with the cluster: validating
// the default Monitor list costs one slice whatever its length.
func TestNewAllocationsIndependentOfClusterSize(t *testing.T) {
	clk := clock.NewManual()
	allocs := func(nodes int) float64 {
		var tr transport.Transport = sizedTransport{nodes}
		return testing.AllocsPerRun(10, func() {
			if _, err := New(tr, clk, DefaultConfig()); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(16), allocs(432); small != large {
		t.Fatalf("New allocates %v times at 16 nodes and %v at 432, want the same", small, large)
	}
}
