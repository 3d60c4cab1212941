package membership

import (
	"testing"
	"time"

	"drsnet/internal/routing/wire"
	"drsnet/internal/transport"
)

func TestTracker(t *testing.T) {
	m := New(4)
	m.MarkStatic(1)
	if !m.IsStatic(1) || m.IsStatic(2) {
		t.Fatal("static marks wrong")
	}
	m.Heard(2, 5*time.Second)
	if m.LastHeard(2) != 5*time.Second {
		t.Fatalf("last heard = %v", m.LastHeard(2))
	}
}

// broadcastRecorder counts hello/goodbye broadcasts per rail.
type broadcastRecorder struct {
	rails  int
	frames [][]byte
	dsts   []int
}

func (r *broadcastRecorder) Node() int  { return 0 }
func (r *broadcastRecorder) Nodes() int { return 4 }
func (r *broadcastRecorder) Rails() int { return r.rails }
func (r *broadcastRecorder) Send(rail, dst int, payload []byte) error {
	r.frames = append(r.frames, payload)
	r.dsts = append(r.dsts, dst)
	return nil
}
func (r *broadcastRecorder) SetReceiver(func(rail, src int, payload []byte)) {}

func TestAnnounceAndGoodbye(t *testing.T) {
	tr := &broadcastRecorder{rails: 2}
	Announce(tr)
	Goodbye(tr)
	if len(tr.frames) != 4 {
		t.Fatalf("%d frames broadcast, want 4", len(tr.frames))
	}
	for i, frame := range tr.frames {
		if tr.dsts[i] != transport.Broadcast {
			t.Fatalf("frame %d sent to %d, not broadcast", i, tr.dsts[i])
		}
		proto, body, err := wire.SplitEnvelope(frame)
		if err != nil || proto != wire.ProtoControl || len(body) != 1 {
			t.Fatalf("frame %d malformed: proto=%d body=%v err=%v", i, proto, body, err)
		}
		want := byte(wire.MsgHello)
		if i >= 2 {
			want = wire.MsgGoodbye
		}
		if body[0] != want {
			t.Fatalf("frame %d type = %d, want %d", i, body[0], want)
		}
	}
}
