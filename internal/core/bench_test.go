package core

import (
	"testing"
	"time"

	"drsnet/internal/routing"
	"drsnet/internal/routing/wire"
)

// The hot paths of the DRS daemon, benchmarked through the public API
// and the simulator so the numbers survive internal refactors. Their
// allocation counts are pinned exactly by the runtime package's
// allocation tests; the timings are for reading, not for gating.

// BenchmarkProbeRound measures one full phase-1 round of a 10-node
// dual-rail cluster: 10 daemons × 9 peers × 2 rails probes plus every
// echo reply and its RTT accounting.
func BenchmarkProbeRound(b *testing.B) {
	cfg := DefaultConfig()
	c := newCluster(b, 10, cfg)
	defer c.stop()
	c.runFor(2 * time.Second) // settle: every link measured
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.runFor(cfg.ProbeInterval)
	}
}

// BenchmarkSendDataDirect measures the steady-state data path: frame
// build, direct-route forward, simulated delivery.
func BenchmarkSendDataDirect(b *testing.B) {
	c := newCluster(b, 4, DefaultConfig())
	defer c.stop()
	c.runFor(2 * time.Second)
	payload := []byte("benchmark payload")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.daemons[0].SendData(1, payload); err != nil {
			b.Fatal(err)
		}
		c.runFor(50 * time.Microsecond)
	}
}

// BenchmarkRelayForward measures the relay data path: after a
// cross-rail failure, every 0→1 datagram crosses node 2's forwarding
// code (TTL decrement, next-hop selection, re-send).
func BenchmarkRelayForward(b *testing.B) {
	cfg := DefaultConfig()
	c := newCluster(b, 3, cfg)
	defer c.stop()
	c.runFor(3 * time.Second)
	cl := c.net.Cluster()
	c.net.Fail(cl.NIC(0, 0))
	c.net.Fail(cl.NIC(1, 1))
	c.runFor(time.Duration(cfg.MissThreshold+3) * cfg.ProbeInterval)
	if rt := c.daemons[0].RouteTo(1); rt.Kind != RouteRelay {
		b.Fatalf("route = %+v, want relay", rt)
	}
	payload := []byte("benchmark payload")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.daemons[0].SendData(1, payload); err != nil {
			b.Fatal(err)
		}
		c.runFor(50 * time.Microsecond)
	}
}

// BenchmarkQueryOfferChurn measures phase-2 control processing: node 0
// receives a stream of distinct route queries (dedupe miss each time)
// and answers each with an offer.
func BenchmarkQueryOfferChurn(b *testing.B) {
	c := newCluster(b, 3, DefaultConfig())
	defer c.stop()
	c.runFor(2 * time.Second)
	before := c.daemons[0].Metrics().Counter(routing.CtrOffersSent).Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := wire.Query{Origin: 1, Target: 2, Seq: uint32(i + 1), TTL: 1}
		payload := wire.Envelope(wire.ProtoControl, wire.MarshalQuery(q))
		if err := c.net.Send(1, 0, 0, payload); err != nil {
			b.Fatal(err)
		}
		c.runFor(time.Millisecond)
	}
	b.StopTimer()
	if got := c.daemons[0].Metrics().Counter(routing.CtrOffersSent).Value(); got == before {
		b.Fatal("no offers sent — benchmark not exercising the offer path")
	}
}
