package core

import (
	"encoding/binary"
	"testing"
	"time"

	"drsnet/internal/clock"
	"drsnet/internal/icmp"
	"drsnet/internal/netsim"
	"drsnet/internal/routing"
	"drsnet/internal/routing/wire"
	"drsnet/internal/topology"
	"drsnet/internal/trace"
	"drsnet/internal/transport"
)

// Strict link evidence shares one echo exchange per pair and rail: the
// lower id requests every round, and each request acknowledges the
// reply to the previous round's request by carrying its RTT sample.
// These tests pin what counts as that acknowledgement.

func strictConfig() Config {
	cfg := DefaultConfig()
	cfg.StrictLinkEvidence = true
	return cfg
}

// firstRoundFrom returns the first probe round at or after at of a
// daemon started at start.
func firstRoundFrom(start, at, interval time.Duration) time.Duration {
	if at <= start {
		return start
	}
	return start + (at-start+interval-1)/interval*interval
}

// A one-way cut of rail 0 between nodes 0 (the requester) and 1 (the
// answering end), at every phase of their rounds and at two points in
// a round. Under ordered-pair probing each end declared the link down
// MissThreshold rounds after its first probe that followed the cut.
// The requester still does, in both directions. When the requester's
// frames vanish, the answering end misses their request and declares
// down no later than that. When its own frames vanish, the answering
// end learns of its lost reply only from the next request, which
// arrives without an acknowledgement, so it may declare down up to one
// round later. With both daemons started together, as every shipped
// scenario starts them, the requester's tx cut is declared in the same
// round at both ends.
func TestStrictOneWayCutDetection(t *testing.T) {
	cfg := strictConfig()
	interval := cfg.ProbeInterval
	for _, dir := range []struct {
		name     string
		src, dst int
	}{{"requester tx", 0, 1}, {"answerer tx", 1, 0}} {
		for _, phase := range []time.Duration{-750, -500, -250, 0, 250, 500, 750} {
			for _, failAt := range []time.Duration{4050, 4550} {
				phase, failAt := phase*time.Millisecond, failAt*time.Millisecond
				starts := []time.Duration{0, phase}
				if phase < 0 {
					starts = []time.Duration{-phase, 0}
				}
				c := newClusterStarting(t, 2, cfg, starts...)
				c.runFor(failAt)
				c.net.Partition(dir.src, dir.dst, 0)
				c.runFor(6 * interval)
				c.stop()
				var down, ordered [2]time.Duration
				for node := range down {
					e, ok := c.log.First(trace.KindLinkDown, node)
					if !ok || e.Rail != 0 {
						t.Fatalf("%s, phase %v, cut at %v: node %d did not declare rail 0 down", dir.name, phase, failAt, node)
					}
					down[node] = e.At
					ordered[node] = firstRoundFrom(starts[node], failAt, interval) + time.Duration(cfg.MissThreshold)*interval
				}
				late := ordered[1]
				if dir.src == 1 {
					late += interval
				}
				if down[0] != ordered[0] || down[1] > late || phase == 0 && dir.src == 0 && down[1] != ordered[1] {
					t.Errorf("%s, phase %v, cut at %v: down at %v and %v; ordered probing: %v and %v",
						dir.name, phase, failAt, down[0], down[1], ordered[0], ordered[1])
				}
			}
		}
	}
}

// ackTap checks every echo request against the acknowledgement rule:
// its RTT sample is nonzero exactly when the sender's previous request
// on the same path went out one round earlier and its reply came back
// before this one left.
type ackTap struct {
	t        *testing.T
	interval time.Duration
	last     map[[3]int]sentProbe // (src, dst, rail) → newest request
	// acked, stale count requests that carried an acknowledgement and
	// that correctly carried none; resumed counts node 1's requests
	// sent after a round without one, which must carry none.
	acked, stale, resumed int
}

type sentProbe struct {
	at      time.Duration
	seq     uint16
	replied bool
}

func (a *ackTap) FrameSent(at time.Duration, fr netsim.Frame) {
	echo, ok := tapEcho(fr)
	if !ok || !echo.Request {
		return
	}
	key := [3]int{fr.Src, fr.Dst, fr.Rail}
	prev, seen := a.last[key]
	fresh := seen && prev.replied && prev.at == at-a.interval
	sample := binary.BigEndian.Uint64(echo.Data[8:probeData])
	if (sample != 0) != fresh {
		a.t.Errorf("%v: request %d→%d rail %d carries sample %d; previous request %+v (seen %v)",
			at, fr.Src, fr.Dst, fr.Rail, sample, prev, seen)
	}
	if fresh {
		a.acked++
	} else {
		a.stale++
	}
	if fr.Src == 1 && seen && prev.at < at-a.interval {
		a.resumed++
	}
	a.last[key] = sentProbe{at: at, seq: echo.Seq}
}

func (a *ackTap) FrameDelivered(_ time.Duration, fr netsim.Frame) {
	echo, ok := tapEcho(fr)
	if !ok || echo.Request {
		return
	}
	key := [3]int{fr.Dst, fr.Src, fr.Rail}
	if p, ok := a.last[key]; ok && p.seq == echo.Seq {
		p.replied = true
		a.last[key] = p
	}
}

// tapEcho decodes an echo frame of full probe length.
func tapEcho(fr netsim.Frame) (icmp.Echo, bool) {
	if len(fr.Payload) < 2 || fr.Payload[0] != wire.ProtoICMP {
		return icmp.Echo{}, false
	}
	echo, err := icmp.Unmarshal(fr.Payload[1:])
	return echo, err == nil && len(echo.Data) >= probeData
}

// A sample from before the previous round is never carried as an
// acknowledgement: not after a lost reply, and not when the answering
// end resumes probing with the requester's samples still on its path.
// Node 1's frames to node 0 vanish for two and a half rounds, then node
// 0's to node 1 for as long.
func TestStrictAckOnlyForPreviousRoundReply(t *testing.T) {
	cfg := strictConfig()
	c := buildClusterShape(t, topology.Dual(2), cfg, nil)
	tap := &ackTap{t: t, interval: cfg.ProbeInterval, last: map[[3]int]sentProbe{}}
	c.net.SetTap(tap)
	for _, d := range c.daemons {
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
	}
	defer c.stop()
	c.runFor(3500 * time.Millisecond)
	c.net.Partition(1, 0, 0)
	c.runFor(2500 * time.Millisecond)
	c.net.Heal(1, 0, 0)
	c.runFor(3 * time.Second)
	c.net.Partition(0, 1, 0)
	c.runFor(2500 * time.Millisecond)
	c.net.Heal(0, 1, 0)
	c.runFor(3 * time.Second)
	if tap.acked == 0 || tap.stale == 0 || tap.resumed == 0 {
		t.Fatalf("%d acknowledged, %d unacknowledged and %d resumed requests; want each", tap.acked, tap.stale, tap.resumed)
	}
	if rtt, ok := c.daemons[1].RTT(0, 0); !ok || rtt.Samples == 0 {
		t.Fatal("the answering end folded no carried sample")
	}
	for node := 0; node < 2; node++ {
		if !c.daemons[node].LinkUp(1-node, 0) {
			t.Errorf("node %d: rail 0 still down after the heals", node)
		}
	}
}

// Only the answering end credits a request, and only one that carries
// an acknowledgement: a request without one, and any request at the
// requesting end, leaves the miss count alone.
func TestStrictCreditsOnlyAcknowledgedRequests(t *testing.T) {
	c := newCluster(t, 2, strictConfig())
	defer c.stop()
	c.runFor(3 * time.Second)
	request := func(from int, sample time.Duration) []byte {
		data := make([]byte, probeData)
		binary.BigEndian.PutUint64(data[8:], uint64(sample))
		echo := icmp.Echo{Request: true, ID: uint16(from), Seq: 9999, Data: data}
		return echo.AppendTo([]byte{wire.ProtoICMP})
	}
	for _, tc := range []struct {
		name       string
		from, to   int
		sample     time.Duration
		wantMisses int
	}{
		{"answering end, no acknowledgement", 0, 1, 0, 1},
		{"answering end, acknowledged", 0, 1, 5 * time.Microsecond, 0},
		{"requesting end, acknowledged", 1, 0, 5 * time.Microsecond, 1},
	} {
		d := c.daemons[tc.to]
		st := d.links.State(tc.from, 0)
		st.Misses = 1
		d.onFrame(0, tc.from, request(tc.from, tc.sample))
		if st.Misses != tc.wantMisses {
			t.Errorf("%s: %d misses after the request, want %d", tc.name, st.Misses, tc.wantMisses)
		}
		st.Misses = 0
	}
}

// On a zero-latency fabric every RTT sample is 0 ns. Carried as at
// least 1 ns, it still acknowledges, so the pairs keep sharing: over
// ten rounds node 0 requests both peers, node 1 requests node 2 only,
// and node 2 answers both without a probe of its own.
func TestStrictSharesOnZeroLatencyMem(t *testing.T) {
	clk := clock.NewManual()
	mem := transport.NewMem(3, 2, clk, 0)
	cfg := strictConfig()
	cfg.ProbeInterval = 100 * time.Millisecond
	log := trace.NewLog(0)
	cfg.Trace = log
	var daemons []*Daemon
	for node := 0; node < 3; node++ {
		d, err := New(mem.Node(node), clk, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		defer d.Stop()
		daemons = append(daemons, d)
	}
	clk.Advance(time.Second)
	var before [3]int64
	for node, d := range daemons {
		before[node] = d.Metrics().Counter(routing.CtrProbesSent).Value()
	}
	const rounds = 10
	clk.Advance(rounds * cfg.ProbeInterval)
	for node, want := range []int64{rounds * 4, rounds * 2, 0} {
		if got := daemons[node].Metrics().Counter(routing.CtrProbesSent).Value() - before[node]; got != want {
			t.Errorf("node %d sent %d probes in %d rounds, want %d", node, got, rounds, want)
		}
	}
	if n := log.Count(trace.KindLinkDown); n != 0 {
		t.Errorf("%d link-down events on a fault-free fabric", n)
	}
}
