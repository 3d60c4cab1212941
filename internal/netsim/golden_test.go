package netsim

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"
	"time"

	"drsnet/internal/rng"
	"drsnet/internal/simtime"
	"drsnet/internal/topology"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// goldenTap writes one line per tap callback: kind, time, src, dst,
// rail and an FNV-64a hash of the payload.
type goldenTap struct{ out bytes.Buffer }

func (g *goldenTap) line(kind byte, at time.Duration, fr Frame) {
	h := fnv.New64a()
	h.Write(fr.Payload)
	fmt.Fprintf(&g.out, "%c %d %d %d %d %016x\n", kind, int64(at), fr.Src, fr.Dst, fr.Rail, h.Sum64())
}

func (g *goldenTap) FrameSent(at time.Duration, fr Frame)      { g.line('S', at, fr) }
func (g *goldenTap) FrameDelivered(at time.Duration, fr Frame) { g.line('D', at, fr) }

// driveImpaired runs a short seeded workload on n: every host sends
// bursts of three frames (unicast or broadcast) to random peers, every
// unicast request is answered from inside the handler, and one NIC
// fails and heals mid-run. It returns the tap record followed by the
// traffic counters.
func driveImpaired(t *testing.T, sched *simtime.Scheduler, n Net, flap topology.Component) []byte {
	t.Helper()
	tap := &goldenTap{}
	n.SetTap(tap)
	r := rng.New(42)
	payload := make([]byte, 0, 256)
	for h := 0; h < n.Nodes(); h++ {
		h := h
		n.SetHandler(h, func(fr Frame) {
			if len(fr.Payload) == 0 || fr.Payload[0] != 0 {
				return
			}
			reply := append(payload[:0], 1, byte(h))
			reply = append(reply, fr.Payload[1:]...)
			if err := n.Send(h, fr.Rail, fr.Src, reply); err != nil {
				t.Error(err)
			}
		})
	}
	const horizon = 12 * time.Millisecond
	for h := 0; h < n.Nodes(); h++ {
		for at := time.Duration(r.Intn(1000)) * time.Microsecond; at < horizon; at += time.Duration(500+r.Intn(1500)) * time.Microsecond {
			src, rail, body := h, r.Intn(n.Rails()), 16+r.Intn(200)
			dst := r.Intn(n.Nodes() + 1)
			if dst == src || dst == n.Nodes() {
				dst = Broadcast
			}
			sched.At(simtime.Time(at), func() {
				kind := byte(0) // a request; broadcasts are not answered
				if dst == Broadcast {
					kind = 2
				}
				for i := 0; i < 3; i++ {
					buf := append(payload[:0], kind, byte(i))
					for j := 0; j < body; j++ {
						buf = append(buf, byte(src+j*i))
					}
					if err := n.Send(src, rail, dst, buf); err != nil {
						t.Error(err)
					}
				}
			})
		}
	}
	sched.At(simtime.Time(4*time.Millisecond), func() { n.Fail(flap) })
	sched.At(simtime.Time(6*time.Millisecond), func() { n.Restore(flap) })
	sched.Run(0)
	for rail := 0; rail < n.Rails(); rail++ {
		fmt.Fprintf(&tap.out, "stats %d %+v\n", rail, n.Stats(rail))
	}
	return tap.out.Bytes()
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("%s: line %d differs:\n got %s\nwant %s", name, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", name, len(gl), len(wl))
	}
}

var (
	goldenImpairment = Impairment{Delay: 3 * time.Microsecond, Jitter: 40 * time.Microsecond}
	goldenRxDelay    = Impairment{Delay: 2 * time.Microsecond, Jitter: 25 * time.Microsecond}
)

// TestImpairedFatTreeTapGolden pins the full frame sequence of a fat
// tree with jitter and delay on one trunk and one receiving NIC: the
// arrivals a jittered link produces are not in link order, which is
// what the scheduler's per-link lanes must still execute exactly.
func TestImpairedFatTreeTapGolden(t *testing.T) {
	f, err := topology.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	sched := simtime.NewScheduler()
	n, err := NewFabricNet(sched, f, DefaultParams(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetImpairment(f.TrunkComp(0), goldenImpairment); err != nil {
		t.Fatal(err)
	}
	if err := n.SetImpairment(f.NIC(1, 0), goldenRxDelay); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "tap_fattree4_impaired.golden", driveImpaired(t, sched, n, f.NIC(14, 0)))
}

// TestImpairedDualTapGolden is the hub counterpart: jitter and delay
// on one NIC of Dual(6), crossed on both its transmit and receive side.
func TestImpairedDualTapGolden(t *testing.T) {
	cl := topology.Dual(6)
	sched := simtime.NewScheduler()
	n, err := New(sched, cl, DefaultParams(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetImpairment(cl.NIC(2, 0), goldenImpairment); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "tap_dual6_impaired.golden", driveImpaired(t, sched, n, cl.NIC(4, 1)))
}

// TestCorruptFatTreeTapGolden pins every corruption draw on a fat
// tree: on a sender NIC whose script includes broadcasts (one transmit
// draw mangles every sibling alike), on a trunk crossed by unicast
// requests and replies, and on a receiving NIC.
func TestCorruptFatTreeTapGolden(t *testing.T) {
	f, err := topology.FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	sched := simtime.NewScheduler()
	n, err := NewFabricNet(sched, f, DefaultParams(), 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []topology.Component{f.NIC(1, 0), f.TrunkComp(0), f.NIC(7, 0)} {
		if err := n.SetImpairment(c, Impairment{Corrupt: 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, "tap_fattree4_corrupt.golden", driveImpaired(t, sched, n, f.NIC(14, 0)))
}
