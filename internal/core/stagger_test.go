package core

import (
	"testing"
	"time"

	"drsnet/internal/clock"
	"drsnet/internal/icmp"
	"drsnet/internal/netsim"
	"drsnet/internal/routing"
	"drsnet/internal/routing/wire"
	"drsnet/internal/simtime"
	"drsnet/internal/topology"
	"drsnet/internal/transport"
)

// recordingTransport wraps a Transport and records the send time of
// every ICMP probe.
type recordingTransport struct {
	transport.Transport
	clock clock.Clock
	sends *[]time.Duration
}

func (r *recordingTransport) Send(rail, dst int, payload []byte) error {
	// Count only outgoing echo REQUESTS (probes); the daemon also
	// sends echo replies to its peers' probes through this transport.
	if len(payload) > 1 && payload[0] == wire.ProtoICMP &&
		payload[1] == icmp.TypeEchoRequest && dst != transport.Broadcast {
		*r.sends = append(*r.sends, r.clock.Now())
	}
	return r.Transport.Send(rail, dst, payload)
}

func probeSpread(t *testing.T, stagger bool) (spread time.Duration, sends int) {
	t.Helper()
	sched := simtime.NewScheduler()
	net, err := netsim.New(sched, topology.Dual(8), netsim.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	clock := simtime.Clock{Sched: sched}
	var times []time.Duration

	cfg := DefaultConfig()
	cfg.StaggerProbes = stagger
	// Only node 0 gets the recording wrapper; the rest run plainly so
	// replies flow.
	tr := &recordingTransport{Transport: netsim.NewTransport(net, 0), clock: clock, sends: &times}
	d0, err := New(tr, clock, cfg)
	if err != nil {
		t.Fatal(err)
	}
	daemons := []*Daemon{d0}
	for node := 1; node < 8; node++ {
		d, err := New(netsim.NewTransport(net, node), clock, cfg)
		if err != nil {
			t.Fatal(err)
		}
		daemons = append(daemons, d)
	}
	for _, d := range daemons {
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
	}
	// Observe exactly the round that starts at t=2s: clear just
	// before it, stop just before the next one.
	sched.RunUntil(simtime.Time(2*time.Second - time.Millisecond))
	times = times[:0]
	sched.RunUntil(simtime.Time(2*time.Second + cfg.ProbeInterval - 2*time.Millisecond))
	for _, d := range daemons {
		d.Stop()
	}
	if len(times) == 0 {
		t.Fatal("no probes recorded")
	}
	min, max := times[0], times[0]
	for _, at := range times {
		if at < min {
			min = at
		}
		if at > max {
			max = at
		}
	}
	return max - min, len(times)
}

func TestStaggerSpreadsProbes(t *testing.T) {
	burstSpread, burstSends := probeSpread(t, false)
	smoothSpread, smoothSends := probeSpread(t, true)
	if burstSends != smoothSends {
		t.Fatalf("probe counts differ: burst %d vs staggered %d", burstSends, smoothSends)
	}
	// 7 peers × 2 rails = 14 probes per round.
	if burstSends != 14 {
		t.Fatalf("probes per round = %d, want 14", burstSends)
	}
	if burstSpread != 0 {
		t.Fatalf("unstaggered probes spread over %v, want a single burst", burstSpread)
	}
	// Staggered: 14 probes at interval/14 steps → spread 13/14 of the
	// interval.
	if smoothSpread < 800*time.Millisecond {
		t.Fatalf("staggered probes spread only %v", smoothSpread)
	}
}

func TestStaggerDoesNotBreakDetection(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StaggerProbes = true
	c := newCluster(t, 4, cfg)
	defer c.stop()
	c.runFor(3 * time.Second)
	c.net.Fail(c.net.Cluster().NIC(1, 0))
	c.runFor(time.Duration(cfg.MissThreshold+2) * cfg.ProbeInterval)
	if c.daemons[0].LinkUp(1, 0) {
		t.Fatal("staggered daemon missed the failure")
	}
	rt := c.daemons[0].RouteTo(1)
	if rt.Kind != RouteDirect || rt.Rail != 1 {
		t.Fatalf("route = %+v, want direct rail 1", rt)
	}
	if err := c.daemons[0].SendData(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	c.runFor(200 * time.Millisecond)
	if len(c.delivered[1]) != 1 {
		t.Fatal("data not delivered after staggered failover")
	}
}

func TestStaggerStopsCleanly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StaggerProbes = true
	c := newCluster(t, 4, cfg)
	c.runFor(2500 * time.Millisecond)
	c.stop()
	before := c.daemons[0].Metrics().Counter(routing.CtrProbesSent).Value()
	c.runFor(3 * time.Second)
	after := c.daemons[0].Metrics().Counter(routing.CtrProbesSent).Value()
	if after != before {
		t.Fatalf("stopped staggered daemon kept probing: %d -> %d", before, after)
	}
}
