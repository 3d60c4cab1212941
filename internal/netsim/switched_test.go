package netsim

import (
	"testing"
	"time"

	"drsnet/internal/simtime"
	"drsnet/internal/topology"
)

func newSwitched(t *testing.T, nodes int) (*simtime.Scheduler, *Network) {
	t.Helper()
	sched := simtime.NewScheduler()
	params := DefaultParams()
	params.Switched = true
	n, err := New(sched, topology.Dual(nodes), params, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sched, n
}

func txTime84() time.Duration {
	return time.Duration(84 * 8 * float64(time.Second) / DefaultRate)
}

func TestSwitchedUnicastTiming(t *testing.T) {
	sched, n := newSwitched(t, 3)
	var at simtime.Time
	n.SetHandler(1, func(fr Frame) { at = sched.Now() })
	if err := n.Send(0, 0, 1, make([]byte, 46)); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	// Store and forward: ingress tx + half latency + egress tx + half
	// latency.
	want := simtime.Time(0).Add(2*txTime84() + DefaultLatency)
	if at != want {
		t.Fatalf("delivered at %v, want %v", at, want)
	}
}

func TestSwitchedDisjointFlowsDoNotContend(t *testing.T) {
	// 0→1 and 2→3 simultaneously: on a hub the second serializes
	// behind the first; on a switch both complete at the same time.
	sched, n := newSwitched(t, 4)
	var times []simtime.Time
	handler := func(fr Frame) { times = append(times, sched.Now()) }
	n.SetHandler(1, handler)
	n.SetHandler(3, handler)
	payload := make([]byte, 46)
	if err := n.Send(0, 0, 1, payload); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(2, 0, 3, payload); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if len(times) != 2 || times[0] != times[1] {
		t.Fatalf("disjoint switched flows not concurrent: %v", times)
	}
}

func TestSwitchedSameEgressSerializes(t *testing.T) {
	// 0→2 and 1→2 contend on node 2's egress port.
	sched, n := newSwitched(t, 3)
	var times []simtime.Time
	n.SetHandler(2, func(fr Frame) { times = append(times, sched.Now()) })
	payload := make([]byte, 46)
	if err := n.Send(0, 0, 2, payload); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(1, 0, 2, payload); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	if times[1]-times[0] != simtime.Time(txTime84()) {
		t.Fatalf("egress serialization gap %v, want %v", times[1]-times[0], txTime84())
	}
}

func TestSwitchedSameIngressSerializes(t *testing.T) {
	// Two frames from node 0 to different receivers share node 0's
	// ingress port but then fan out: the second arrives one tx later.
	sched, n := newSwitched(t, 3)
	arrivals := map[int]simtime.Time{}
	for node := 1; node < 3; node++ {
		node := node
		n.SetHandler(node, func(fr Frame) { arrivals[node] = sched.Now() })
	}
	payload := make([]byte, 46)
	if err := n.Send(0, 0, 1, payload); err != nil {
		t.Fatal(err)
	}
	if err := n.Send(0, 0, 2, payload); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if got := arrivals[2] - arrivals[1]; got != simtime.Time(txTime84()) {
		t.Fatalf("ingress serialization gap %v, want %v", time.Duration(got), txTime84())
	}
}

func TestSwitchedBroadcast(t *testing.T) {
	sched, n := newSwitched(t, 4)
	got := map[int]int{}
	for node := 0; node < 4; node++ {
		node := node
		n.SetHandler(node, func(fr Frame) { got[node]++ })
	}
	if err := n.Send(1, 1, Broadcast, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if got[1] != 0 {
		t.Fatal("broadcast echoed to sender")
	}
	for _, node := range []int{0, 2, 3} {
		if got[node] != 1 {
			t.Fatalf("node %d received %d copies", node, got[node])
		}
	}
}

func TestSwitchedFailuresStillDrop(t *testing.T) {
	sched, n := newSwitched(t, 2)
	n.SetHandler(1, func(Frame) { t.Error("delivered through failure") })
	n.Fail(n.Cluster().NIC(1, 0))
	if err := n.Send(0, 0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if n.Stats(0).DroppedRxNIC != 1 {
		t.Fatalf("stats = %+v", n.Stats(0))
	}
	// Mid-flight segment failure.
	n.Restore(n.Cluster().NIC(1, 0))
	if err := n.Send(0, 0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	n.Fail(n.Cluster().Backplane(0))
	sched.Run(0)
	if n.Stats(0).DroppedSegment != 1 {
		t.Fatalf("stats = %+v", n.Stats(0))
	}
}

func TestSwitchedUtilizationUsesAggregateCapacity(t *testing.T) {
	sched, n := newSwitched(t, 4)
	n.SetHandler(1, func(Frame) {})
	rate := float64(DefaultRate)
	frames := int(rate / (84 * 8) / 2) // half-saturate node 0's ingress for 1s
	for i := 0; i < frames; i++ {
		if err := n.Send(0, 0, 1, make([]byte, 46)); err != nil {
			t.Fatal(err)
		}
	}
	sched.RunUntil(simtime.Time(time.Second))
	u := n.Utilization(0)
	// Half of one port of a 4-port fabric = 1/8 of aggregate.
	if u < 0.115 || u > 0.135 {
		t.Fatalf("utilization = %v, want ~0.125", u)
	}
}
