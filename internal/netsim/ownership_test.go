package netsim

import (
	"bytes"
	"fmt"
	"testing"
	"time"
	"unsafe"

	"drsnet/internal/simtime"
)

// The buffer-ownership rule both engines implement: a sender may reuse
// its buffer when Send returns; a receiver may read the payload until
// its handler returns. In between the bytes belong to the network,
// which recycles them — these tests are what makes the recycling safe.

type engine struct {
	sched *simtime.Scheduler
	net   Net
}

// ownershipNets returns a small instance of each engine. Hosts 0 to 3
// exist in both, and so does rail 0.
func ownershipNets(t *testing.T) map[string]engine {
	t.Helper()
	hubSched, hub := newNet(t, 4)
	fabSched, fab := newFatTreeNet(t, 4)
	return map[string]engine{
		"hub":    {hubSched, hub},
		"fabric": {fabSched, fab},
	}
}

func TestSenderMayOverwriteAfterSend(t *testing.T) {
	for name, e := range ownershipNets(t) {
		var got []string
		e.net.SetHandler(1, func(fr Frame) { got = append(got, string(fr.Payload)) })
		buf := make([]byte, 8)
		want := make([]string, 5)
		for i := range want {
			want[i] = fmt.Sprintf("frame-%02d", i)
			copy(buf, want[i])
			if err := e.net.Send(0, 0, 1, buf); err != nil {
				t.Fatal(err)
			}
			copy(buf, "CLOBBER!")
		}
		e.sched.Run(0)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: received %q, want %q", name, got, want)
		}
	}
}

// A handler that answers from inside the callback — every echo reply
// does — must not have its own send land in the buffer it is reading.
func TestReplyFromInsideHandlerKeepsFrameIntact(t *testing.T) {
	for name, e := range ownershipNets(t) {
		net := e.net
		var seen, echoed []string
		net.SetHandler(1, func(fr Frame) {
			before := string(fr.Payload)
			for i := 0; i < 3; i++ { // more sends than the pool has spare buffers
				if err := net.Send(1, 0, 0, []byte("reply-overwrites")); err != nil {
					t.Error(err)
				}
			}
			if string(fr.Payload) != before {
				t.Errorf("%s: frame changed under its handler: %q -> %q", name, before, fr.Payload)
			}
			seen = append(seen, before)
		})
		net.SetHandler(0, func(fr Frame) { echoed = append(echoed, string(fr.Payload)) })
		for round := 0; round < 3; round++ { // later rounds run on recycled buffers
			if err := net.Send(0, 0, 1, []byte(fmt.Sprintf("request-%d", round))); err != nil {
				t.Fatal(err)
			}
			e.sched.Run(0)
		}
		if fmt.Sprint(seen) != "[request-0 request-1 request-2]" {
			t.Errorf("%s: requests seen %q", name, seen)
		}
		if len(echoed) != 9 {
			t.Errorf("%s: %d replies arrived, want 9", name, len(echoed))
		}
		for _, r := range echoed {
			if r != "reply-overwrites" {
				t.Errorf("%s: reply arrived as %q", name, r)
			}
		}
	}
}

// A frame parked by a receive-side Delay outlives the event that
// carried it to the NIC; frames sent meanwhile recycle that event and
// must not be able to reach the parked bytes.
func TestDelayedFrameSurvivesRecycling(t *testing.T) {
	for name, e := range ownershipNets(t) {
		net := e.net
		var order []string
		net.SetHandler(1, func(fr Frame) { order = append(order, string(fr.Payload)) })
		net.SetHandler(2, func(fr Frame) { order = append(order, string(fr.Payload)) })
		nic := net.Fabric().NIC(1, 0)
		if err := net.SetImpairment(nic, Impairment{Delay: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		if err := net.Send(0, 0, 1, []byte("held-back")); err != nil {
			t.Fatal(err)
		}
		e.sched.RunUntil(e.sched.Now().Add(500 * time.Microsecond)) // at the NIC, delay running
		if len(order) != 0 {
			t.Fatalf("%s: delayed frame arrived early", name)
		}
		for i := 0; i < 3; i++ {
			if err := net.Send(0, 0, 2, []byte(fmt.Sprintf("later-%d!!", i))); err != nil {
				t.Fatal(err)
			}
			e.sched.RunUntil(e.sched.Now().Add(100 * time.Microsecond))
		}
		e.sched.Run(0)
		if fmt.Sprint(order) != "[later-0!! later-1!! later-2!! held-back]" {
			t.Errorf("%s: deliveries %q", name, order)
		}
	}
}

// Receive-side corruption of one broadcast receiver leaves the others'
// bytes intact: the mangled copy is that receiver's alone.
func TestBroadcastSiblingsIntactWhenOneIsCorrupted(t *testing.T) {
	for name, e := range ownershipNets(t) {
		net := e.net
		got := map[int][]byte{}
		for h := 0; h < net.Nodes(); h++ {
			h := h
			net.SetHandler(h, func(fr Frame) { got[h] = keep(fr).Payload })
		}
		if err := net.SetImpairment(net.Fabric().NIC(1, 0), Impairment{Corrupt: 1}); err != nil {
			t.Fatal(err)
		}
		orig := []byte("to-everyone")
		for round := 0; round < 2; round++ { // second round: recycled buffers
			if err := net.Send(0, 0, Broadcast, orig); err != nil {
				t.Fatal(err)
			}
			e.sched.Run(0)
			if len(got) != net.Nodes()-1 {
				t.Fatalf("%s: %d receivers, want %d", name, len(got), net.Nodes()-1)
			}
			for h, b := range got {
				if clean := bytes.Equal(b, orig); clean == (h == 1) {
					t.Errorf("%s round %d: host %d got %q", name, round, h, b)
				}
				delete(got, h)
			}
		}
	}
}

// Once warm, carrying a frame allocates nothing on either engine:
// every record, timer and payload copy is reused.
func TestSendAllocatesNothing(t *testing.T) {
	for name, e := range ownershipNets(t) {
		for _, dst := range []int{3, Broadcast} {
			kind := "unicast"
			if dst == Broadcast {
				kind = "broadcast"
			}
			t.Run(name+"/"+kind, func(t *testing.T) {
				delivered := 0
				for h := 0; h < e.net.Nodes(); h++ {
					e.net.SetHandler(h, func(Frame) { delivered++ })
				}
				payload := []byte("steady-state")
				exchange := func() {
					if err := e.net.Send(0, 0, dst, payload); err != nil {
						t.Fatal(err)
					}
					e.sched.Run(0)
				}
				exchange() // routes computed, pools primed
				if delivered == 0 {
					t.Fatal("nothing delivered")
				}
				if allocs := testing.AllocsPerRun(100, exchange); allocs != 0 {
					t.Fatalf("a %s %s allocates %v times, want 0", name, kind, allocs)
				}
			})
		}
	}
}

// Payloads of every size round-trip through recycled records, whether
// a record's previous frame sat inline or in its spill buffer, and
// once warm a spilled frame allocates nothing either.
func TestRecycledPayloadsSwitchInlineAndSpill(t *testing.T) {
	sizes := []int{17, 100, 0, inlineBytes, inlineBytes + 1, 5, 1500, inlineBytes - 1}
	for name, e := range ownershipNets(t) {
		var got [][]byte
		e.net.SetHandler(1, func(fr Frame) { got = append(got, keep(fr).Payload) })
		var want [][]byte
		for i, size := range sizes {
			b := bytes.Repeat([]byte{byte('a' + i)}, size)
			want = append(want, b)
			if err := e.net.Send(0, 0, 1, b); err != nil {
				t.Fatal(err)
			}
			e.sched.Run(0) // the next send reuses this frame's record
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d frames delivered, want %d", name, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("%s: frame %d (%d bytes) arrived as %d bytes %q", name, i, len(want[i]), len(got[i]), got[i])
			}
		}

		e.net.SetHandler(1, func(Frame) {})
		big := make([]byte, 200)
		exchange := func() {
			if err := e.net.Send(0, 0, 1, big); err != nil {
				t.Fatal(err)
			}
			e.sched.Run(0)
		}
		exchange()
		if allocs := testing.AllocsPerRun(100, exchange); allocs != 0 {
			t.Errorf("%s: a warm spilled frame allocates %v times, want 0", name, allocs)
		}
	}
}

// A cold send of a probe-sized frame allocates its in-flight record
// and nothing else: the payload rides inline. Each send below finds
// the freelist empty, because no earlier frame has been delivered.
func TestColdSendAllocatesOneObjectPerRecord(t *testing.T) {
	probe := make([]byte, 17) // envelope byte plus an ICMP echo
	for _, dst := range []int{3, Broadcast} {
		for name, e := range ownershipNets(t) {
			records := 1.0
			if _, fabric := e.net.(*FabricNet); fabric && dst == Broadcast {
				records = float64(e.net.Nodes() - 1) // one per sibling
			}
			send := func() {
				if err := e.net.Send(0, 0, dst, probe); err != nil {
					t.Fatal(err)
				}
			}
			if allocs := testing.AllocsPerRun(20, send); allocs != records {
				t.Errorf("%s to %d: a cold send allocates %v objects, want %v", name, dst, allocs, records)
			}
		}
	}
}

// Each engine's in-flight record fits in 128 bytes with its payload
// inline: about 186k of them are live at a fat-tree probe burst.
func TestInFlightRecordsFit128Bytes(t *testing.T) {
	if size := unsafe.Sizeof(hopEvent{}); size > 128 {
		t.Errorf("FabricNet hopEvent is %d bytes, want <= 128", size)
	}
	if size := unsafe.Sizeof(frameEvent{}); size > 128 {
		t.Errorf("Network frameEvent is %d bytes, want <= 128", size)
	}
}
