package dataplane

import (
	"bytes"
	"fmt"
	"testing"

	"drsnet/internal/metrics"
	"drsnet/internal/routing/wire"
)

func TestNewFrameSequencesAndRoundTrips(t *testing.T) {
	p := New(3, 8, 4, 16, nil)
	for want := uint32(1); want <= 3; want++ {
		frame := p.NewFrame(5, []byte("payload"))
		proto, body, err := wire.SplitEnvelope(frame)
		if err != nil || proto != wire.ProtoData {
			t.Fatalf("frame envelope: proto=%d err=%v", proto, err)
		}
		h, data, err := wire.UnmarshalData(body)
		if err != nil {
			t.Fatal(err)
		}
		if h.Origin != 3 || h.Final != 5 || h.TTL != 4 || h.Seq != want {
			t.Fatalf("header = %+v, want seq %d", h, want)
		}
		if string(data) != "payload" {
			t.Fatalf("data = %q", data)
		}
	}
}

func TestClassify(t *testing.T) {
	p := New(2, 4, 4, 16, nil)
	mk := func(final, ttl int) []byte {
		return wire.MarshalData(wire.DataHeader{Origin: 0, Final: uint16(final), TTL: uint8(ttl), Seq: 1}, []byte("x"))
	}
	if _, _, act := p.Classify([]byte{1, 2}); act != Ignore {
		t.Fatalf("malformed body: %v", act)
	}
	if h, data, act := p.Classify(mk(2, 1)); act != Deliver || h.Final != 2 || string(data) != "x" {
		t.Fatalf("frame for self: %v %+v", act, h)
	}
	if _, _, act := p.Classify(mk(3, 1)); act != Drop {
		t.Fatalf("TTL-exhausted frame: %v", act)
	}
	if _, _, act := p.Classify(mk(9, 3)); act != Drop {
		t.Fatalf("out-of-cluster destination: %v", act)
	}
	h, _, act := p.Classify(mk(3, 3))
	if act != Forward || h.TTL != 2 {
		t.Fatalf("relay frame: %v ttl=%d", act, h.TTL)
	}
	// Frame re-frames the decremented header byte-identically to a
	// fresh marshal.
	if got, want := Frame(h, []byte("x")), wire.Envelope(wire.ProtoData, mk(3, 2)); !bytes.Equal(got, want) {
		t.Fatalf("reframe = %x, want %x", got, want)
	}
}

func TestEnqueueDropsOldestDeterministically(t *testing.T) {
	mset := metrics.NewSet()
	ctr := mset.Counter("queue.overflow")
	p := New(0, 4, 4, 3, ctr)
	if !p.CanQueue() {
		t.Fatal("CanQueue = false with capacity 3")
	}
	for i := 0; i < 5; i++ {
		p.Enqueue(2, []byte(fmt.Sprintf("frame-%d", i)))
	}
	if got := ctr.Value(); got != 2 {
		t.Fatalf("overflow counter = %d, want 2", got)
	}
	if n := p.QueueLen(2); n != 3 {
		t.Fatalf("queue length = %d, want 3", n)
	}
	// The two oldest frames (0, 1) were evicted; order preserved.
	got := p.Flush(2)
	for i, want := range []string{"frame-2", "frame-3", "frame-4"} {
		if string(got[i]) != want {
			t.Fatalf("flushed[%d] = %q, want %q", i, got[i], want)
		}
	}
	if p.QueueLen(2) != 0 || p.Flush(2) != nil {
		t.Fatal("queue survived flush")
	}
}

func TestZeroCapacityDisablesQueueing(t *testing.T) {
	p := New(0, 4, 4, 0, nil)
	if p.CanQueue() {
		t.Fatal("CanQueue = true with capacity 0")
	}
}
