package flowsim

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"drsnet/internal/core"
	"drsnet/internal/netsim"
	"drsnet/internal/routing"
	"drsnet/internal/simtime"
	"drsnet/internal/topology"
)

// rig is a DRS cluster with a flow from node 0 to node 1.
type rig struct {
	sched *simtime.Scheduler
	net   *netsim.Network
	ds    []*core.Daemon
	flow  *Flow
	sink  *Sink
	got   [][]byte
}

func newRig(t *testing.T, nodes int, probe time.Duration, lossRate float64, fcfg FlowConfig) *rig {
	t.Helper()
	sched := simtime.NewScheduler()
	params := netsim.DefaultParams()
	params.LossRate = lossRate
	net, err := netsim.New(sched, topology.Dual(nodes), params, 3)
	if err != nil {
		t.Fatal(err)
	}
	clock := simtime.Clock{Sched: sched}
	r := &rig{sched: sched, net: net}
	var endpoints []*Endpoint
	for node := 0; node < nodes; node++ {
		cfg := core.DefaultConfig()
		cfg.ProbeInterval = probe
		d, err := core.New(netsim.NewTransport(net, node), clock, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		ep, err := NewEndpoint(d, clock)
		if err != nil {
			t.Fatal(err)
		}
		endpoints = append(endpoints, ep)
		r.ds = append(r.ds, d)
	}
	r.flow, err = endpoints[0].Dial(1, 7, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	r.sink, err = endpoints[1].Listen(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	r.sink.deliver = func(data []byte) { r.got = append(r.got, data) }
	return r
}

func (r *rig) run(d time.Duration) { r.sched.RunUntil(r.sched.Now().Add(d)) }

func (r *rig) stop() {
	for _, d := range r.ds {
		d.Stop()
	}
}

func TestWireRoundTrip(t *testing.T) {
	b := marshal(300, kindSegment, 42, []byte("payload"))
	flowID, kind, seq, payload, err := unmarshal(b)
	if err != nil || flowID != 300 || kind != kindSegment || seq != 42 || !bytes.Equal(payload, []byte("payload")) {
		t.Fatalf("round trip: %d %d %d %q %v", flowID, kind, seq, payload, err)
	}
	if _, _, _, _, err := unmarshal([]byte{1, 2}); err == nil {
		t.Fatal("short frame accepted")
	}
}

func TestHealthyStreamInOrder(t *testing.T) {
	r := newRig(t, 3, time.Second, 0, DefaultFlowConfig())
	defer r.stop()
	r.run(time.Second)
	const n = 20
	for i := 0; i < n; i++ {
		if err := r.flow.Send([]byte(fmt.Sprintf("seg-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	r.run(2 * time.Second)
	fs := r.flow.Stats()
	ss := r.sink.Stats()
	if fs.Acked != n || fs.Dead {
		t.Fatalf("flow stats: %+v", fs)
	}
	if fs.Retransmissions != 0 {
		t.Fatalf("healthy stream retransmitted %d times", fs.Retransmissions)
	}
	if ss.Received != n || ss.Duplicates != 0 {
		t.Fatalf("sink stats: %+v", ss)
	}
	for i, data := range r.got {
		if want := fmt.Sprintf("seg-%02d", i); string(data) != want {
			t.Fatalf("order broken at %d: %q", i, data)
		}
	}
	// Stop-and-wait stall on a healthy LAN is sub-millisecond.
	if fs.MaxAckStall > time.Millisecond {
		t.Fatalf("healthy stall = %v", fs.MaxAckStall)
	}
}

func TestFlowSurvivesNICFailureUnderDRS(t *testing.T) {
	// Fast probing (200 ms): the DRS repairs within 400 ms, so TCP's
	// first 1 s retransmission finds a working path — the paper's
	// "applications are unaware" regime made concrete.
	r := newRig(t, 4, 200*time.Millisecond, 0, DefaultFlowConfig())
	defer r.stop()
	r.run(time.Second)

	// Stream steadily; fail the receiver's primary NIC mid-stream.
	sent := 0
	for i := 0; i < 10; i++ {
		if err := r.flow.Send([]byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
		sent++
		r.run(50 * time.Millisecond)
	}
	r.net.Fail(r.net.Cluster().NIC(1, 0))
	for i := 0; i < 10; i++ {
		if err := r.flow.Send([]byte(fmt.Sprintf("post-%d", i))); err != nil {
			t.Fatal(err)
		}
		sent++
		r.run(50 * time.Millisecond)
	}
	r.run(5 * time.Second)

	fs := r.flow.Stats()
	ss := r.sink.Stats()
	if fs.Dead {
		t.Fatalf("connection died across a single NIC failure: %+v", fs)
	}
	if fs.Acked != sent {
		t.Fatalf("acked %d of %d", fs.Acked, sent)
	}
	if ss.Received != sent {
		t.Fatalf("received %d of %d", ss.Received, sent)
	}
	// One segment (plus possibly its ack) was in the blast radius;
	// recovery must cost at most a few retransmissions...
	if fs.Retransmissions > 3 {
		t.Fatalf("%d retransmissions for one failover", fs.Retransmissions)
	}
	// ...and the worst stall is one RTO plus scheduling slack: the
	// retransmitted segment rides the repaired route.
	if fs.MaxAckStall > 1500*time.Millisecond {
		t.Fatalf("max stall %v, want ≈ 1 RTO", fs.MaxAckStall)
	}
}

func TestFlowDiesOnStaticOutage(t *testing.T) {
	// The same transport over static routing: the failure is forever,
	// the retry budget runs out, the connection resets.
	sched := simtime.NewScheduler()
	net, err := netsim.New(sched, topology.Dual(2), netsim.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	clock := simtime.Clock{Sched: sched}
	mk := func(node int) *Endpoint {
		s, err := routing.NewStatic(netsim.NewTransport(net, node), 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		ep, err := NewEndpoint(s, clock)
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	a, b := mk(0), mk(1)
	fcfg := FlowConfig{RTO: 100 * time.Millisecond, MaxRTO: 400 * time.Millisecond, MaxRetries: 4}
	flow, err := a.Dial(1, 1, fcfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Listen(0, 1); err != nil {
		t.Fatal(err)
	}
	net.Fail(net.Cluster().Backplane(0))
	if err := flow.Send([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	sched.RunUntil(simtime.Time(10 * time.Second))
	fs := flow.Stats()
	if !fs.Dead {
		t.Fatalf("flow survived a permanent outage: %+v", fs)
	}
	if fs.Retransmissions != fcfg.MaxRetries {
		t.Fatalf("retransmissions = %d, want %d", fs.Retransmissions, fcfg.MaxRetries)
	}
	if err := flow.Send([]byte("after-death")); err == nil {
		t.Fatal("send on dead flow accepted")
	}
}

func TestDuplicatesHandledUnderLoss(t *testing.T) {
	// 20% frame loss: segments and acks both vanish; the protocol
	// must deliver everything exactly once in order anyway.
	fcfg := FlowConfig{RTO: 200 * time.Millisecond, MaxRTO: time.Second, MaxRetries: 20}
	r := newRig(t, 3, time.Second, 0.2, fcfg)
	defer r.stop()
	r.run(time.Second)
	const n = 30
	for i := 0; i < n; i++ {
		if err := r.flow.Send([]byte(fmt.Sprintf("%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	r.run(60 * time.Second)
	fs := r.flow.Stats()
	ss := r.sink.Stats()
	if fs.Dead {
		t.Fatalf("flow died under 20%% loss: %+v", fs)
	}
	if fs.Acked != n || ss.Received != n {
		t.Fatalf("acked %d received %d of %d", fs.Acked, ss.Received, n)
	}
	if fs.Retransmissions == 0 {
		t.Fatal("no retransmissions at 20% loss — loss injection broken?")
	}
	if len(r.got) != n {
		t.Fatalf("delivered %d payloads", len(r.got))
	}
	for i, data := range r.got {
		if want := fmt.Sprintf("%03d", i); string(data) != want {
			t.Fatalf("order broken at %d: %q", i, data)
		}
	}
}

func TestEndpointValidation(t *testing.T) {
	sched := simtime.NewScheduler()
	net, err := netsim.New(sched, topology.Dual(2), netsim.DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	clock := simtime.Clock{Sched: sched}
	s, err := routing.NewStatic(netsim.NewTransport(net, 0), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEndpoint(nil, clock); err == nil {
		t.Error("nil router accepted")
	}
	ep, err := NewEndpoint(s, clock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Dial(1, 5, DefaultFlowConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Dial(1, 5, DefaultFlowConfig()); err == nil {
		t.Error("duplicate dial accepted")
	}
	if _, err := ep.Listen(1, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Listen(1, 5); err == nil {
		t.Error("duplicate listen accepted")
	}
	bad := FlowConfig{RTO: 0}
	if _, err := ep.Dial(1, 6, bad); err == nil {
		t.Error("zero RTO accepted")
	}
	bad = FlowConfig{RTO: time.Second, MaxRTO: time.Millisecond}
	if _, err := ep.Dial(1, 6, bad); err == nil {
		t.Error("MaxRTO < RTO accepted")
	}
	bad = FlowConfig{RTO: time.Second, MaxRetries: -1}
	if _, err := ep.Dial(1, 6, bad); err == nil {
		t.Error("negative retries accepted")
	}
}

func TestPendingAccounting(t *testing.T) {
	r := newRig(t, 3, time.Second, 0, DefaultFlowConfig())
	defer r.stop()
	// Before any simulation time passes, everything is queued.
	for i := 0; i < 5; i++ {
		if err := r.flow.Send([]byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(r.flow.queue); got != 5 {
		t.Fatalf("pending = %d, want 5", got)
	}
	r.run(time.Second)
	if got := len(r.flow.queue); got != 0 {
		t.Fatalf("pending after drain = %d", got)
	}
}
