package transport

import (
	"fmt"
	"testing"
	"time"

	"drsnet/internal/clock"
)

// A frame through Mem allocates nothing in steady state: the payload
// copy, the delivery record and the clock's timer record are all
// recycled. Faults.Wrap(Mem) with no policy installed passes the frame
// straight through, and a skewed frame takes the deferred path, whose
// record and payload copy are recycled too.
func TestMemFrameAllocations(t *testing.T) {
	for _, c := range []struct {
		name   string
		faults bool
		skew   time.Duration
	}{
		{"mem", false, 0},
		{"faults idle", true, 0},
		{"faults skew", true, 3 * time.Millisecond},
	} {
		clk := clock.NewManual()
		m := NewMem(2, 1, clk, time.Millisecond)
		var tx, rx Transport = m.Node(0), m.Node(1)
		if c.faults {
			f := NewFaults(1, clk)
			if c.skew > 0 {
				f.SetSkew(1, c.skew)
			}
			tx, rx = f.Wrap(tx), f.Wrap(rx)
		}
		got := 0
		rx.SetReceiver(func(rail, src int, payload []byte) { got++ })
		payload := []byte("steady-state")
		exchange := func() {
			if err := tx.Send(0, 1, payload); err != nil {
				t.Fatal(err)
			}
			clk.Advance(time.Millisecond + c.skew)
		}
		exchange()
		if allocs := testing.AllocsPerRun(100, exchange); allocs != 0 {
			t.Errorf("%s: a frame allocates %v times, want 0", c.name, allocs)
		}
		if got != 102 {
			t.Errorf("%s: %d frames delivered, want 102", c.name, got)
		}
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
