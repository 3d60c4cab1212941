package netsim

import (
	"bytes"
	"testing"
	"time"

	"drsnet/internal/rng"
	"drsnet/internal/simtime"
	"drsnet/internal/topology"
)

func rngForTest(seed uint64) *rng.Source { return rng.New(seed) }

func newNet(t *testing.T, nodes int) (*simtime.Scheduler, *Network) {
	t.Helper()
	sched := simtime.NewScheduler()
	n, err := New(sched, topology.Dual(nodes), DefaultParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return sched, n
}

// keep returns fr with a private copy of its payload: a handler owns
// the bytes only until it returns, so tests that inspect frames later
// record them through keep.
func keep(fr Frame) Frame {
	fr.Payload = append([]byte(nil), fr.Payload...)
	return fr
}

func TestUnicastDelivery(t *testing.T) {
	sched, n := newNet(t, 3)
	var got []Frame
	n.SetHandler(1, func(fr Frame) { got = append(got, keep(fr)) })
	n.SetHandler(2, func(fr Frame) { t.Error("unicast leaked to node 2") })
	if err := n.Send(0, 0, 1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if len(got) != 1 {
		t.Fatalf("delivered %d frames", len(got))
	}
	fr := got[0]
	if fr.Src != 0 || fr.Dst != 1 || fr.Rail != 0 || !bytes.Equal(fr.Payload, []byte("hello")) {
		t.Fatalf("frame = %+v", fr)
	}
}

func TestDeliveryTiming(t *testing.T) {
	sched, n := newNet(t, 2)
	var at simtime.Time
	n.SetHandler(1, func(fr Frame) { at = sched.Now() })
	payload := make([]byte, 46) // 46+38 overhead = 84 wire bytes
	if err := n.Send(0, 0, 1, payload); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	wantTx := time.Duration(84 * 8 * float64(time.Second) / DefaultRate)
	want := simtime.Time(0).Add(wantTx + DefaultLatency)
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestMinFramePadding(t *testing.T) {
	sched, n := newNet(t, 2)
	n.SetHandler(1, func(Frame) {})
	if err := n.Send(0, 0, 1, []byte{1}); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if got := n.Stats(0).BitsSent; got != 84*8 {
		t.Fatalf("BitsSent = %v, want %v (minimum frame)", got, 84*8)
	}
}

func TestSerializationQueues(t *testing.T) {
	// Two back-to-back frames: the second waits for the first to
	// finish transmitting.
	sched, n := newNet(t, 3)
	var times []simtime.Time
	handler := func(fr Frame) { times = append(times, sched.Now()) }
	n.SetHandler(1, handler)
	n.SetHandler(2, handler)
	payload := make([]byte, 46)
	if err := n.Send(0, 0, 1, payload); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(0, 0, 2, payload); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	tx := time.Duration(84 * 8 * float64(time.Second) / DefaultRate)
	if want := simtime.Time(0).Add(tx + DefaultLatency); times[0] != want {
		t.Fatalf("first at %v, want %v", times[0], want)
	}
	if want := simtime.Time(0).Add(2*tx + DefaultLatency); times[1] != want {
		t.Fatalf("second at %v, want %v (serialized)", times[1], want)
	}
}

func TestRailsAreIndependentMedia(t *testing.T) {
	// Frames on different rails do not serialize against each other.
	sched, n := newNet(t, 2)
	var times []simtime.Time
	n.SetHandler(1, func(fr Frame) { times = append(times, sched.Now()) })
	payload := make([]byte, 46)
	if err := n.Send(0, 0, 1, payload); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(0, 1, 1, payload); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if len(times) != 2 || times[0] != times[1] {
		t.Fatalf("rail frames not concurrent: %v", times)
	}
}

func TestBroadcast(t *testing.T) {
	sched, n := newNet(t, 4)
	got := map[int]int{}
	for node := 0; node < 4; node++ {
		node := node
		n.SetHandler(node, func(fr Frame) {
			if fr.Dst != node {
				t.Errorf("broadcast copy addressed to %d delivered to %d", fr.Dst, node)
			}
			got[node]++
		})
	}
	if err := n.Send(2, 1, Broadcast, []byte("who-can-reach")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if got[2] != 0 {
		t.Fatal("broadcast echoed to sender")
	}
	for _, node := range []int{0, 1, 3} {
		if got[node] != 1 {
			t.Fatalf("node %d received %d copies", node, got[node])
		}
	}
}

func TestBroadcastCopiesAreIndependent(t *testing.T) {
	sched, n := newNet(t, 3)
	var seen [][]byte
	for node := 1; node < 3; node++ {
		n.SetHandler(node, func(fr Frame) {
			fr.Payload[0] = byte(fr.Dst) // mutate
			seen = append(seen, fr.Payload)
		})
	}
	if err := n.Send(0, 0, Broadcast, []byte{0xff, 2}); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if len(seen) != 2 || seen[0][0] == seen[1][0] {
		t.Fatalf("broadcast receivers share payload storage: %v", seen)
	}
}

func TestSenderBufferReuseSafe(t *testing.T) {
	sched, n := newNet(t, 2)
	var got []byte
	n.SetHandler(1, func(fr Frame) { got = keep(fr).Payload })
	buf := []byte("original")
	if err := n.Send(0, 0, 1, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, "clobber!")
	sched.Run(0)
	if string(got) != "original" {
		t.Fatalf("payload corrupted by sender buffer reuse: %q", got)
	}
}

func TestFailedTxNICDropsSilently(t *testing.T) {
	sched, n := newNet(t, 2)
	n.SetHandler(1, func(Frame) { t.Error("frame delivered through failed NIC") })
	n.Fail(n.Cluster().NIC(0, 0))
	if err := n.Send(0, 0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if n.Stats(0).DroppedTxNIC != 1 {
		t.Fatalf("stats = %+v", n.Stats(0))
	}
}

func TestFailedRxNICDrops(t *testing.T) {
	sched, n := newNet(t, 2)
	n.SetHandler(1, func(Frame) { t.Error("delivered to failed NIC") })
	n.Fail(n.Cluster().NIC(1, 0))
	if err := n.Send(0, 0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if n.Stats(0).DroppedRxNIC != 1 {
		t.Fatalf("stats = %+v", n.Stats(0))
	}
}

func TestFailedSegmentDropsAtSend(t *testing.T) {
	sched, n := newNet(t, 2)
	n.SetHandler(1, func(Frame) { t.Error("delivered over failed segment") })
	n.Fail(n.Cluster().Backplane(0))
	if err := n.Send(0, 0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if n.Stats(0).DroppedSegment != 1 {
		t.Fatalf("stats = %+v", n.Stats(0))
	}
	// The other rail still works.
	delivered := false
	n.SetHandler(1, func(Frame) { delivered = true })
	if err := n.Send(0, 1, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if !delivered {
		t.Fatal("healthy rail affected by other rail's failure")
	}
}

func TestSegmentFailureMidFlight(t *testing.T) {
	sched, n := newNet(t, 2)
	n.SetHandler(1, func(Frame) { t.Error("in-flight frame survived segment failure") })
	if err := n.Send(0, 0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// Fail the segment before propagation completes.
	n.Fail(n.Cluster().Backplane(0))
	sched.Run(0)
	if n.Stats(0).DroppedSegment != 1 {
		t.Fatalf("stats = %+v", n.Stats(0))
	}
}

func TestRestore(t *testing.T) {
	sched, n := newNet(t, 2)
	c := n.Cluster().NIC(0, 0)
	n.Fail(c)
	if n.ComponentUp(c) {
		t.Fatal("component up after Fail")
	}
	n.Restore(c)
	if !n.ComponentUp(c) {
		t.Fatal("component down after Restore")
	}
	delivered := false
	n.SetHandler(1, func(Frame) { delivered = true })
	if err := n.Send(0, 0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if !delivered {
		t.Fatal("restored NIC did not carry traffic")
	}
}

func TestFailedComponents(t *testing.T) {
	_, n := newNet(t, 3)
	c := n.Cluster()
	if got := n.FailedComponents(); len(got) != 0 {
		t.Fatalf("fresh network has failures: %v", got)
	}
	n.Fail(c.NIC(1, 0))
	n.Fail(c.Backplane(1))
	got := n.FailedComponents()
	if len(got) != 2 || got[0] != c.NIC(1, 0) || got[1] != c.Backplane(1) {
		t.Fatalf("FailedComponents = %v", got)
	}
}

func TestRandomLoss(t *testing.T) {
	sched := simtime.NewScheduler()
	params := DefaultParams()
	params.LossRate = 0.3
	n, err := New(sched, topology.Dual(2), params, 7)
	if err != nil {
		t.Fatal(err)
	}
	delivered := 0
	n.SetHandler(1, func(Frame) { delivered++ })
	const total = 2000
	for i := 0; i < total; i++ {
		if err := n.Send(0, 0, 1, []byte("x")); err != nil {
			t.Fatal(err)
		}
		sched.Run(0)
	}
	frac := float64(delivered) / total
	if frac < 0.64 || frac > 0.76 {
		t.Fatalf("delivered fraction %v, want ~0.7", frac)
	}
	if n.Stats(0).DroppedLoss != int64(total-delivered) {
		t.Fatalf("loss accounting mismatch: %+v", n.Stats(0))
	}
}

func TestUtilizationMatchesCostModelScale(t *testing.T) {
	// Saturate rail 0 for one simulated second and check utilization.
	sched, n := newNet(t, 2)
	n.SetHandler(1, func(Frame) {})
	payload := make([]byte, 46) // exactly minimum frame on the wire
	rate := float64(DefaultRate)
	frames := int(rate / (84 * 8)) // fills ~one second
	for i := 0; i < frames; i++ {
		if err := n.Send(0, 0, 1, payload); err != nil {
			t.Fatal(err)
		}
	}
	sched.RunUntil(simtime.Time(time.Second))
	u := n.Utilization(0)
	if u < 0.99 || u > 1.01 {
		t.Fatalf("utilization = %v, want ~1.0", u)
	}
}

func TestSendValidation(t *testing.T) {
	_, n := newNet(t, 2)
	if err := n.Send(0, 5, 1, nil); err == nil {
		t.Error("bad rail accepted")
	}
	if err := n.Send(0, 0, 0, nil); err == nil {
		t.Error("self-send accepted")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad src node did not panic")
			}
		}()
		_ = n.Send(9, 0, 1, nil)
	}()
}

func TestNewValidation(t *testing.T) {
	sched := simtime.NewScheduler()
	if _, err := New(nil, topology.Dual(2), DefaultParams(), 0); err == nil {
		t.Error("nil scheduler accepted")
	}
	if _, err := New(sched, topology.Cluster{Nodes: 1, Rails: 2}, DefaultParams(), 0); err == nil {
		t.Error("bad cluster accepted")
	}
	bad := DefaultParams()
	bad.Rate = 0
	if _, err := New(sched, topology.Dual(2), bad, 0); err == nil {
		t.Error("zero rate accepted")
	}
	bad = DefaultParams()
	bad.LossRate = 1
	if _, err := New(sched, topology.Dual(2), bad, 0); err == nil {
		t.Error("loss rate 1 accepted")
	}
	bad = DefaultParams()
	bad.Latency = -time.Second
	if _, err := New(sched, topology.Dual(2), bad, 0); err == nil {
		t.Error("negative latency accepted")
	}
}

func TestNoHandlerIsFine(t *testing.T) {
	sched, n := newNet(t, 2)
	if err := n.Send(0, 0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0) // must not panic
}

func TestFrameConservation(t *testing.T) {
	// For unicast traffic with handlers installed everywhere, every
	// sent frame is accounted for exactly once: delivered or dropped
	// with a cause.
	for _, switched := range []bool{false, true} {
		sched := simtime.NewScheduler()
		params := DefaultParams()
		params.Switched = switched
		params.LossRate = 0.1
		n, err := New(sched, topology.Dual(5), params, 11)
		if err != nil {
			t.Fatal(err)
		}
		for node := 0; node < 5; node++ {
			n.SetHandler(node, func(Frame) {})
		}
		r := rngForTest(22)
		cl := n.Cluster()
		for i := 0; i < 2000; i++ {
			src := int(r.Uint64n(5))
			dst := int(r.Uint64n(5))
			if dst == src {
				continue
			}
			rail := int(r.Uint64n(2))
			if err := n.Send(src, rail, dst, []byte("x")); err != nil {
				t.Fatal(err)
			}
			// Churn component state to exercise every drop path.
			switch r.Uint64n(20) {
			case 0:
				n.Fail(cl.NIC(int(r.Uint64n(5)), int(r.Uint64n(2))))
			case 1:
				n.Restore(cl.NIC(int(r.Uint64n(5)), int(r.Uint64n(2))))
			case 2:
				n.Fail(cl.Backplane(int(r.Uint64n(2))))
			case 3:
				n.Restore(cl.Backplane(int(r.Uint64n(2))))
			}
			if i%50 == 0 {
				sched.Run(0)
			}
		}
		sched.Run(0)
		for rail := 0; rail < 2; rail++ {
			s := n.Stats(rail)
			accounted := s.FramesDelivered + s.DroppedTxNIC + s.DroppedSegment +
				s.DroppedRxNIC + s.DroppedLoss
			if accounted != s.FramesSent {
				t.Fatalf("switched=%v rail %d: sent %d but accounted %d (%+v)",
					switched, rail, s.FramesSent, accounted, s)
			}
		}
	}
}
