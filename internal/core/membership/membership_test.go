package membership

import (
	"testing"
	"time"

	"drsnet/internal/routing/wire"
	"drsnet/internal/transport"
)

func TestTracker(t *testing.T) {
	m := New(4)
	m.Heard(2, 5*time.Second)
	if m.LastHeard(2) != 5*time.Second {
		t.Fatalf("last heard = %v", m.LastHeard(2))
	}
	if m.LastHeard(1) != 0 {
		t.Fatalf("unheard peer last heard at %v", m.LastHeard(1))
	}
}

// broadcastRecorder records every frame sent and its destination.
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

// TestRejoinBroadcastsOnEveryRail: the rejoin announcement is one
// broadcast per rail, each carrying the incarnation.
func TestRejoinBroadcastsOnEveryRail(t *testing.T) {
	tr := &broadcastRecorder{rails: 2}
	Rejoin(tr, 7)
	if len(tr.frames) != 2 {
		t.Fatalf("%d frames broadcast, want 2", len(tr.frames))
	}
	for i, frame := range tr.frames {
		if tr.dsts[i] != transport.Broadcast {
			t.Fatalf("frame %d sent to %d, not broadcast", i, tr.dsts[i])
		}
		proto, body, err := wire.SplitEnvelope(frame)
		if err != nil || proto != wire.ProtoControl {
			t.Fatalf("frame %d malformed: %v", i, err)
		}
		if inc, err := wire.UnmarshalRejoin(body); err != nil || inc != 7 {
			t.Fatalf("frame %d: inc=%d err=%v", i, inc, err)
		}
	}
}
