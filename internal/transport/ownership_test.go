package transport

import (
	"fmt"
	"testing"
	"time"

	"drsnet/internal/clock"
)

// One frame through Mem costs the clock's timer and nothing else: the
// payload copy and the delivery record are recycled.
func TestMemFrameAllocations(t *testing.T) {
	clk := clock.NewManual()
	m := NewMem(2, 1, clk, time.Millisecond)
	m.Node(1).SetReceiver(func(rail, src int, payload []byte) {})
	payload := []byte("steady-state")
	exchange := func() {
		if err := m.Node(0).Send(0, 1, payload); err != nil {
			t.Fatal(err)
		}
		clk.Advance(time.Millisecond)
	}
	exchange()
	if allocs := testing.AllocsPerRun(100, exchange); allocs > 1 {
		t.Fatalf("a Mem frame allocates %v times, want <= 1", allocs)
	}
}

// A receiver that sends from inside its callback draws a different
// record than the one it is reading, on first use and after recycling.
func TestMemReplyFromInsideReceiverKeepsFrameIntact(t *testing.T) {
	clk := clock.NewManual()
	m := NewMem(2, 1, clk, time.Millisecond)
	var seen, echoed []string
	m.Node(1).SetReceiver(func(rail, src int, payload []byte) {
		before := string(payload)
		for i := 0; i < 3; i++ {
			if err := m.Node(1).Send(0, 0, []byte("reply-overwrites")); err != nil {
				t.Error(err)
			}
		}
		if string(payload) != before {
			t.Errorf("frame changed under its receiver: %q -> %q", before, payload)
		}
		seen = append(seen, before)
	})
	m.Node(0).SetReceiver(func(rail, src int, payload []byte) { echoed = append(echoed, string(payload)) })
	buf := make([]byte, 9)
	for round := 0; round < 3; round++ {
		copy(buf, fmt.Sprintf("request-%d", round))
		if err := m.Node(0).Send(0, 1, buf); err != nil {
			t.Fatal(err)
		}
		copy(buf, "CLOBBERED")
		clk.Advance(2 * time.Millisecond)
	}
	if fmt.Sprint(seen) != "[request-0 request-1 request-2]" {
		t.Errorf("requests seen %q", seen)
	}
	if len(echoed) != 9 {
		t.Fatalf("%d replies arrived, want 9", len(echoed))
	}
	for _, r := range echoed {
		if r != "reply-overwrites" {
			t.Errorf("reply arrived as %q", r)
		}
	}
}
