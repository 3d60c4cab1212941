package netsim

import (
	"bytes"
	"testing"
	"time"

	"drsnet/internal/simtime"
	"drsnet/internal/topology"
)

// impairRig is a two-node dual-rail network with delivery recording.
type impairRig struct {
	sched *simtime.Scheduler
	net   *Network
	got   map[int][]Frame
}

func newImpairRig(t *testing.T, params Params) *impairRig {
	t.Helper()
	sched := simtime.NewScheduler()
	net, err := New(sched, topology.Dual(2), params, 42)
	if err != nil {
		t.Fatal(err)
	}
	rig := &impairRig{sched: sched, net: net, got: map[int][]Frame{}}
	for node := 0; node < 2; node++ {
		node := node
		net.SetHandler(node, func(fr Frame) { rig.got[node] = append(rig.got[node], keep(fr)) })
	}
	return rig
}

// TestUnidirectionalTxFailure: a TX-dead NIC eats the node's own
// frames on that rail while frames TO the node still arrive.
func TestUnidirectionalTxFailure(t *testing.T) {
	rig := newImpairRig(t, DefaultParams())
	nic := rig.net.Cluster().NIC(0, 0)
	rig.net.FailDir(nic, DirTx)

	if rig.net.ComponentUp(nic) {
		t.Fatal("half-failed NIC reports fully up")
	}
	if !rig.net.DirUp(nic, DirRx) || rig.net.DirUp(nic, DirTx) {
		t.Fatal("direction state wrong after FailDir(DirTx)")
	}

	if err := rig.net.Send(0, 0, 1, []byte("out")); err != nil {
		t.Fatal(err)
	}
	if err := rig.net.Send(1, 0, 0, []byte("in")); err != nil {
		t.Fatal(err)
	}
	rig.sched.Run(0)
	if len(rig.got[1]) != 0 {
		t.Fatalf("TX-dead NIC transmitted: %v", rig.got[1])
	}
	if len(rig.got[0]) != 1 || string(rig.got[0][0].Payload) != "in" {
		t.Fatalf("RX half should still work, got %v", rig.got[0])
	}
	if st := rig.net.Stats(0); st.DroppedTxNIC != 1 {
		t.Fatalf("DroppedTxNIC = %d, want 1", st.DroppedTxNIC)
	}

	rig.net.RestoreDir(nic, DirTx)
	if !rig.net.ComponentUp(nic) {
		t.Fatal("NIC not up after RestoreDir")
	}
}

// TestUnidirectionalRxFailure: the mirror case.
func TestUnidirectionalRxFailure(t *testing.T) {
	rig := newImpairRig(t, DefaultParams())
	nic := rig.net.Cluster().NIC(0, 1)
	rig.net.FailDir(nic, DirRx)

	if err := rig.net.Send(0, 1, 1, []byte("out")); err != nil {
		t.Fatal(err)
	}
	if err := rig.net.Send(1, 1, 0, []byte("in")); err != nil {
		t.Fatal(err)
	}
	rig.sched.Run(0)
	if len(rig.got[1]) != 1 {
		t.Fatalf("TX half should still work, got %v", rig.got[1])
	}
	if len(rig.got[0]) != 0 {
		t.Fatalf("RX-dead NIC received: %v", rig.got[0])
	}
	if st := rig.net.Stats(1); st.DroppedRxNIC != 1 {
		t.Fatalf("DroppedRxNIC = %d, want 1", st.DroppedRxNIC)
	}
}

// TestImpairmentLoss: a 100% loss impairment on the sender's NIC eats
// every frame and counts it, while the other rail is untouched.
func TestImpairmentLoss(t *testing.T) {
	rig := newImpairRig(t, DefaultParams())
	nic := rig.net.Cluster().NIC(0, 0)
	if err := rig.net.SetImpairment(nic, Impairment{Loss: 1}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := rig.net.Send(0, 0, 1, []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := rig.net.Send(0, 1, 1, []byte("y")); err != nil {
			t.Fatal(err)
		}
	}
	rig.sched.Run(0)
	if len(rig.got[1]) != 5 {
		t.Fatalf("rail 1 deliveries = %d, want 5", len(rig.got[1]))
	}
	if st := rig.net.Stats(0); st.DroppedImpaired != 5 {
		t.Fatalf("DroppedImpaired = %d, want 5", st.DroppedImpaired)
	}
}

// TestImpairmentDelay: a fixed extra delay shifts delivery by exactly
// that amount, deterministically.
func TestImpairmentDelay(t *testing.T) {
	base := newImpairRig(t, DefaultParams())
	if err := base.net.Send(0, 0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	base.sched.Run(0)
	baseline := base.sched.Now().Duration()

	rig := newImpairRig(t, DefaultParams())
	const extra = 3 * time.Millisecond
	if err := rig.net.SetImpairment(rig.net.Cluster().Backplane(0), Impairment{Delay: extra}); err != nil {
		t.Fatal(err)
	}
	if err := rig.net.Send(0, 0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	rig.sched.Run(0)
	if got := rig.sched.Now().Duration(); got != baseline+extra {
		t.Fatalf("delayed delivery at %v, want %v", got, baseline+extra)
	}
	if len(rig.got[1]) != 1 {
		t.Fatalf("delayed frame not delivered: %v", rig.got[1])
	}
}

// TestImpairmentCorruption: a 100% corrupt impairment mangles the
// payload but still delivers a frame of the same length.
func TestImpairmentCorruption(t *testing.T) {
	rig := newImpairRig(t, DefaultParams())
	if err := rig.net.SetImpairment(rig.net.Cluster().NIC(0, 0), Impairment{Corrupt: 1}); err != nil {
		t.Fatal(err)
	}
	orig := []byte("hello world")
	if err := rig.net.Send(0, 0, 1, orig); err != nil {
		t.Fatal(err)
	}
	rig.sched.Run(0)
	if len(rig.got[1]) != 1 {
		t.Fatalf("corrupted frame not delivered: %v", rig.got[1])
	}
	got := rig.got[1][0].Payload
	if len(got) != len(orig) {
		t.Fatalf("corruption changed length: %d != %d", len(got), len(orig))
	}
	if bytes.Equal(got, orig) {
		t.Fatal("payload not corrupted")
	}
	if st := rig.net.Stats(0); st.Corrupted != 1 {
		t.Fatalf("Corrupted = %d, want 1", st.Corrupted)
	}
	// The sender's buffer must be untouched (payload was copied).
	if string(orig) != "hello world" {
		t.Fatalf("sender buffer mutated: %q", orig)
	}
}

// TestBroadcastCorruptionIsPerReceiver: RX-side corruption mangles
// only the impaired receiver's copy of a broadcast.
func TestBroadcastCorruptionIsPerReceiver(t *testing.T) {
	sched := simtime.NewScheduler()
	net, err := New(sched, topology.Dual(3), DefaultParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	got := map[int][]byte{}
	for node := 0; node < 3; node++ {
		node := node
		net.SetHandler(node, func(fr Frame) { got[node] = keep(fr).Payload })
	}
	if err := net.SetImpairment(net.Cluster().NIC(1, 0), Impairment{Corrupt: 1}); err != nil {
		t.Fatal(err)
	}
	orig := []byte("broadcast payload")
	if err := net.Send(0, 0, Broadcast, orig); err != nil {
		t.Fatal(err)
	}
	sched.Run(0)
	if !bytes.Equal(got[2], orig) {
		t.Fatalf("clean receiver got corrupted copy: %q", got[2])
	}
	if bytes.Equal(got[1], orig) {
		t.Fatal("impaired receiver got clean copy")
	}
}

// TestImpairmentValidation: out-of-range probabilities and negative
// delays are rejected.
func TestImpairmentValidation(t *testing.T) {
	rig := newImpairRig(t, DefaultParams())
	nic := rig.net.Cluster().NIC(0, 0)
	for _, imp := range []Impairment{
		{Loss: -0.1}, {Loss: 1.5}, {Corrupt: 2}, {Delay: -time.Second}, {Jitter: -1},
	} {
		if err := rig.net.SetImpairment(nic, imp); err == nil {
			t.Errorf("SetImpairment(%+v) accepted", imp)
		}
	}
	// Zero impairment clears instead of installing.
	if err := rig.net.SetImpairment(nic, Impairment{Loss: 0.5}); err != nil {
		t.Fatal(err)
	}
	if err := rig.net.SetImpairment(nic, Impairment{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := rig.net.ImpairmentOn(nic); ok {
		t.Fatal("zero impairment did not clear")
	}
}

// TestImpairmentDoesNotPerturbLossStream: installing an impairment on
// one component must not change which OTHER frames the global
// Params.LossRate process drops (separate rng substreams).
func TestImpairmentDoesNotPerturbLossStream(t *testing.T) {
	run := func(impaired bool) []string {
		params := DefaultParams()
		params.LossRate = 0.3
		sched := simtime.NewScheduler()
		net, err := New(sched, topology.Dual(2), params, 99)
		if err != nil {
			t.Fatal(err)
		}
		var delivered []string
		net.SetHandler(1, func(fr Frame) { delivered = append(delivered, string(fr.Payload)) })
		if impaired {
			// Impair rail 1; rail 0 traffic must see the same loss draws.
			if err := net.SetImpairment(net.Cluster().Backplane(1), Impairment{Loss: 0.5}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 50; i++ {
			if err := net.Send(0, 0, 1, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			sched.Run(0)
		}
		return delivered
	}
	clean, chaotic := run(false), run(true)
	if len(clean) != len(chaotic) {
		t.Fatalf("loss stream perturbed: %d vs %d deliveries", len(clean), len(chaotic))
	}
	for i := range clean {
		if clean[i] != chaotic[i] {
			t.Fatalf("delivery %d differs", i)
		}
	}
}
