package transport

import (
	"encoding/binary"
	"net"
	"sync"
	"testing"
	"time"

	"drsnet/internal/metrics"
)

// freeAddrs reserves n loopback UDP ports and returns them as
// listen addresses. The sockets are closed, so a subsequent bind can
// race with another process — acceptable for a local test.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = conn.LocalAddr().String()
		conn.Close()
	}
	return addrs
}

// udpPair builds a 2-node, 2-rail cluster on loopback.
func udpPair(t *testing.T) (*UDP, *UDP) {
	t.Helper()
	a := freeAddrs(t, 4)
	peers := [][]string{{a[0], a[1]}, {a[2], a[3]}}
	u0, err := NewUDP(UDPConfig{Node: 0, Listen: peers[0], Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	u1, err := NewUDP(UDPConfig{Node: 1, Listen: peers[1], Peers: peers})
	if err != nil {
		u0.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { u0.Close(); u1.Close() })
	return u0, u1
}

type udpSink struct {
	mu     sync.Mutex
	frames []memFrame
}

func (s *udpSink) recv(rail, src int, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frames = append(s.frames, memFrame{rail, src, string(payload)})
}

func (s *udpSink) wait(t *testing.T, n int) []memFrame {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		if len(s.frames) >= n {
			out := append([]memFrame(nil), s.frames...)
			s.mu.Unlock()
			return out
		}
		s.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t.Fatalf("timed out waiting for %d frames, have %v", n, s.frames)
	return nil
}

func TestUDPExchange(t *testing.T) {
	u0, u1 := udpPair(t)
	var sink udpSink
	u1.SetReceiver(sink.recv)

	if err := u0.Send(0, 1, []byte("rail0")); err != nil {
		t.Fatal(err)
	}
	if err := u0.Send(1, 1, []byte("rail1")); err != nil {
		t.Fatal(err)
	}
	frames := sink.wait(t, 2)
	seen := map[memFrame]bool{}
	for _, f := range frames {
		seen[f] = true
	}
	if !seen[memFrame{0, 0, "rail0"}] || !seen[memFrame{1, 0, "rail1"}] {
		t.Fatalf("frames %v missing expected rail deliveries", frames)
	}
}

func TestUDPBroadcast(t *testing.T) {
	u0, u1 := udpPair(t)
	var sink udpSink
	u1.SetReceiver(sink.recv)
	if err := u0.Send(0, Broadcast, []byte("bcast")); err != nil {
		t.Fatal(err)
	}
	frames := sink.wait(t, 1)
	if frames[0] != (memFrame{0, 0, "bcast"}) {
		t.Fatalf("got %v", frames[0])
	}
}

// TestUDPRejectsMalformed feeds the receiver raw datagrams a real
// network could produce — truncated, wrong magic, wrong version,
// forged source — and checks none of them reach the protocol, while
// a valid frame after the junk still does.
func TestUDPRejectsMalformed(t *testing.T) {
	u0, u1 := udpPair(t)
	var sink udpSink
	u1.SetReceiver(sink.recv)

	raddr, err := net.ResolveUDPAddr("udp", u1.conns[0].LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	junkConn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer junkConn.Close()

	forgedSelf := []byte{udpMagic, udpVersion, 0, 0, 'x'}
	binary.BigEndian.PutUint16(forgedSelf[2:4], 1) // src == receiver itself
	outOfRange := []byte{udpMagic, udpVersion, 0, 0, 'x'}
	binary.BigEndian.PutUint16(outOfRange[2:4], 9)
	junk := [][]byte{
		{},                        // empty
		{udpMagic},                // truncated header
		{udpMagic, udpVersion, 0}, // one byte short
		{0xFF, udpVersion, 0, 0},  // wrong magic
		{udpMagic, 99, 0, 0},      // wrong version
		forgedSelf,                // reflected source
		outOfRange,                // source index out of range
	}
	for _, d := range junk {
		if _, err := junkConn.Write(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := u0.Send(0, 1, []byte("legit")); err != nil {
		t.Fatal(err)
	}
	frames := sink.wait(t, 1)
	for _, f := range frames {
		if f.payload != "legit" {
			t.Fatalf("junk datagram delivered: %v", f)
		}
	}
}

func TestUDPBoundsErrors(t *testing.T) {
	u0, _ := udpPair(t)
	if err := u0.Send(7, 1, nil); err == nil {
		t.Fatal("out-of-range rail accepted")
	}
	if err := u0.Send(0, 9, nil); err == nil {
		t.Fatal("out-of-range dst accepted")
	}
}

func TestUDPConfigValidation(t *testing.T) {
	if _, err := NewUDP(UDPConfig{Node: 0}); err == nil {
		t.Fatal("empty config accepted")
	}
	a := freeAddrs(t, 2)
	peers := [][]string{{a[0]}, {a[1]}}
	if _, err := NewUDP(UDPConfig{Node: 5, Listen: peers[0], Peers: peers}); err == nil {
		t.Fatal("node index out of range accepted")
	}
	if _, err := NewUDP(UDPConfig{Node: 0, Listen: peers[0], Peers: [][]string{{a[0], "x"}, {a[1], "y"}}}); err == nil {
		t.Fatal("ragged peer rails accepted")
	}
}

func TestUDPCloseIdempotent(t *testing.T) {
	u0, u1 := udpPair(t)
	if err := u0.Close(); err != nil {
		t.Fatal(err)
	}
	if err := u0.Close(); err != nil {
		t.Fatal(err)
	}
	_ = u1
}

// TestUDPTxErrorsCounted: a send the socket refuses (oversized
// datagram) stays best-effort — no error to the caller — but lands in
// transport.tx_errors, both on unicast and per-peer on broadcast.
func TestUDPTxErrorsCounted(t *testing.T) {
	u0, _ := udpPair(t)
	set := metrics.NewSet()
	u0.SetMetrics(set)
	huge := make([]byte, 1<<20) // over any UDP datagram limit
	if err := u0.Send(0, 1, huge); err != nil {
		t.Fatalf("oversized send errored: %v", err)
	}
	if got := set.Counter(CtrTxErrors).Value(); got != 1 {
		t.Fatalf("tx_errors after unicast = %d, want 1", got)
	}
	if err := u0.Send(0, Broadcast, huge); err != nil {
		t.Fatalf("oversized broadcast errored: %v", err)
	}
	if got := set.Counter(CtrTxErrors).Value(); got != 2 {
		t.Fatalf("tx_errors after broadcast = %d, want 2 (one peer)", got)
	}
}

// TestUDPRxErrorBackoff: a socket stuck returning errors (read
// deadline in the past) is counted under transport.rx_errors and
// backed off instead of busy-spun — a bounded handful of retries over
// the window, not thousands — and the rail recovers when the socket
// does.
func TestUDPRxErrorBackoff(t *testing.T) {
	u0, u1 := udpPair(t)
	set := metrics.NewSet()
	u1.SetMetrics(set)
	var sink udpSink
	u1.SetReceiver(sink.recv)

	u1.conns[0].SetReadDeadline(time.Unix(1, 0)) // every read times out
	time.Sleep(120 * time.Millisecond)
	errs := set.Counter(CtrRxErrors).Value()
	if errs == 0 {
		t.Fatal("rx_errors not counted on a failing socket")
	}
	// 120ms of 1-2-4-...ms exponential backoff is ~7 retries; a spin
	// would be tens of thousands.
	if errs > 20 {
		t.Fatalf("rx_errors = %d in 120ms — receive loop is spinning, not backing off", errs)
	}

	u1.conns[0].SetReadDeadline(time.Time{}) // socket recovers
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := u0.Send(0, 1, []byte("revived")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
		sink.mu.Lock()
		n := len(sink.frames)
		sink.mu.Unlock()
		if n > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("rail did not recover after the socket error cleared")
		}
	}
}

// TestUDPRoundTripAllocations: a datagram allocates nothing on either
// side of the socket — not in Send, not in the receive loop — for a
// unicast and for a broadcast to two peers. AllocsPerRun counts every
// goroutine's allocations, so the receive loops are inside the count.
func TestUDPRoundTripAllocations(t *testing.T) {
	a := freeAddrs(t, 3)
	peers := [][]string{{a[0]}, {a[1]}, {a[2]}}
	nodes := make([]*UDP, len(peers))
	for n := range nodes {
		u, err := NewUDP(UDPConfig{Node: n, Listen: peers[n], Peers: peers})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { u.Close() })
		nodes[n] = u
	}
	arrived := make(chan struct{}, 2) // one slot per receiving peer
	for _, u := range nodes[1:] {
		u.SetReceiver(func(rail, src int, payload []byte) { arrived <- struct{}{} })
	}
	timeout := time.NewTimer(time.Hour)
	defer timeout.Stop()
	payload := []byte("drs-probe")
	for _, c := range []struct {
		name      string
		dst, want int
	}{{"unicast", 1, 1}, {"broadcast", Broadcast, 2}} {
		got := testing.AllocsPerRun(200, func() {
			if err := nodes[0].Send(0, c.dst, payload); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < c.want; i++ {
				timeout.Reset(5 * time.Second)
				select {
				case <-arrived:
					timeout.Stop()
				case <-timeout.C:
					t.Fatalf("%s: datagram lost on loopback", c.name)
				}
			}
		})
		if got != 0 {
			t.Errorf("%s: %v allocations per datagram round trip, want 0", c.name, got)
		}
	}
}

// TestUDPPeerAddressForms: peers stored as netip.AddrPort still reach
// every address form a config may name — a wildcard listener, and a
// host-less ":port" peer, which names this host.
func TestUDPPeerAddressForms(t *testing.T) {
	a := freeAddrs(t, 2)
	var ports [2]string
	for i, addr := range a {
		_, ports[i], _ = net.SplitHostPort(addr)
	}
	hostless := []string{":" + ports[0], ":" + ports[1]}
	loopback := []string{"127.0.0.1:" + ports[0], "127.0.0.1:" + ports[1]}
	for _, c := range []struct {
		name          string
		listen, peers []string
	}{
		{"wildcard listen, host-less peers", hostless, hostless},
		{"loopback listen, host-less peers", loopback, hostless},
		{"wildcard listen, loopback peers", hostless, loopback},
	} {
		peers := [][]string{c.peers[:1], c.peers[1:]}
		u0, err := NewUDP(UDPConfig{Node: 0, Listen: c.listen[:1], Peers: peers})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		u1, err := NewUDP(UDPConfig{Node: 1, Listen: c.listen[1:], Peers: peers})
		if err != nil {
			u0.Close()
			t.Fatalf("%s: %v", c.name, err)
		}
		var sink udpSink
		u1.SetReceiver(sink.recv)
		if err := u0.Send(0, 1, []byte(c.name)); err != nil {
			t.Fatal(err)
		}
		if got := sink.wait(t, 1)[0]; got != (memFrame{0, 0, c.name}) {
			t.Errorf("%s: got %v", c.name, got)
		}
		u0.Close()
		u1.Close()
	}
}
