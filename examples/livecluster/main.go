// Livecluster: the same DRS daemon that runs inside the deterministic
// simulator, running for real — over UDP sockets on the loopback
// interface, with the wall clock as its timer source. A software "NIC"
// flag per (node, rail) lets us unplug interfaces the way a failed
// card would, without leaving the process.
//
// Four nodes probe each other every 50 ms on two rails (two UDP ports
// per node), each monitoring the other three as the deployed DRS does
// its configured host list. We unplug interfaces and watch the daemons
// fail over to the second rail and then to a relay, live. The example
// exits nonzero unless all three datagrams arrive, so it doubles as an
// end-to-end check of the live daemon.
//
//	go run ./examples/livecluster
package main

import (
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"drsnet/internal/clock"
	"drsnet/internal/core"
	"drsnet/internal/transport"
)

const (
	nodes = 4
	rails = 2
)

// udpTransport is one node's pair of "NICs": a UDP socket per rail on
// 127.0.0.1, plus an up/down flag per rail for fault injection.
type udpTransport struct {
	node  int
	conns []*net.UDPConn // one per rail
	nicUp []atomic.Bool
	peers [][]*net.UDPAddr // peers[node][rail]

	mu   sync.Mutex
	recv func(rail, src int, payload []byte)
	done chan struct{}
}

func newUDPTransport(node int) (*udpTransport, error) {
	t := &udpTransport{
		node:  node,
		conns: make([]*net.UDPConn, rails),
		nicUp: make([]atomic.Bool, rails),
		done:  make(chan struct{}),
	}
	for rail := 0; rail < rails; rail++ {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 0})
		if err != nil {
			return nil, err
		}
		t.conns[rail] = conn
		t.nicUp[rail].Store(true)
	}
	return t, nil
}

// start launches the receive loops once every peer address is known.
func (t *udpTransport) start(peers [][]*net.UDPAddr) {
	t.peers = peers
	for rail := 0; rail < rails; rail++ {
		rail := rail
		go func() {
			buf := make([]byte, 64*1024)
			for {
				n, _, err := t.conns[rail].ReadFromUDP(buf)
				if err != nil {
					select {
					case <-t.done:
						return
					default:
						continue
					}
				}
				if n < 1 || !t.nicUp[rail].Load() {
					continue // a dead NIC hears nothing
				}
				src := int(buf[0])
				if src < 0 || src >= nodes || src == t.node {
					continue
				}
				payload := append([]byte(nil), buf[1:n]...)
				t.mu.Lock()
				recv := t.recv
				t.mu.Unlock()
				if recv != nil {
					recv(rail, src, payload)
				}
			}
		}()
	}
}

func (t *udpTransport) close() {
	close(t.done)
	for _, c := range t.conns {
		c.Close()
	}
}

func (t *udpTransport) Node() int  { return t.node }
func (t *udpTransport) Nodes() int { return nodes }
func (t *udpTransport) Rails() int { return rails }

func (t *udpTransport) Send(rail, dst int, payload []byte) error {
	if !t.nicUp[rail].Load() {
		return nil // a dead NIC sends nothing, silently — like hardware
	}
	frame := append([]byte{byte(t.node)}, payload...)
	send := func(to int) {
		if addr := t.peers[to][rail]; addr != nil {
			_, _ = t.conns[rail].WriteToUDP(frame, addr)
		}
	}
	if dst == transport.Broadcast {
		for to := 0; to < nodes; to++ {
			if to != t.node {
				send(to)
			}
		}
		return nil
	}
	send(dst)
	return nil
}

func (t *udpTransport) SetReceiver(fn func(rail, src int, payload []byte)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.recv = fn
}

func main() {
	clk := clock.NewWall()
	defer clk.Stop()

	// Bind every socket first so all addresses are known, then wire
	// the mesh.
	transports := make([]*udpTransport, nodes)
	for n := 0; n < nodes; n++ {
		t, err := newUDPTransport(n)
		if err != nil {
			log.Fatal(err)
		}
		transports[n] = t
	}
	peers := make([][]*net.UDPAddr, nodes)
	for n, t := range transports {
		peers[n] = make([]*net.UDPAddr, rails)
		for r, conn := range t.conns {
			peers[n][r] = conn.LocalAddr().(*net.UDPAddr)
		}
	}
	for _, t := range transports {
		t.start(peers)
	}
	defer func() {
		for _, t := range transports {
			t.close()
		}
	}()

	// One DRS daemon per node, probing every 50 ms. The default host
	// list (a nil Monitor) is every other node.
	cfg := core.DefaultConfig()
	cfg.ProbeInterval = 50 * time.Millisecond
	cfg.MissThreshold = 2

	daemons := make([]*core.Daemon, nodes)
	var deliveredMu sync.Mutex
	var delivered []string
	for n := 0; n < nodes; n++ {
		d, err := core.New(transports[n], clk, cfg)
		if err != nil {
			log.Fatal(err)
		}
		n := n
		d.SetDeliverFunc(func(src int, data []byte) {
			deliveredMu.Lock()
			delivered = append(delivered, fmt.Sprintf("%d→%d %q", src, n, data))
			deliveredMu.Unlock()
		})
		daemons[n] = d
	}
	for _, d := range daemons {
		if err := d.Start(); err != nil {
			log.Fatal(err)
		}
	}
	defer func() {
		for _, d := range daemons {
			d.Stop()
		}
	}()

	route := func(a, b int) string {
		rt := daemons[a].RouteTo(b)
		return fmt.Sprintf("%s rail %d via %d", rt.Kind, rt.Rail, rt.Via)
	}

	time.Sleep(300 * time.Millisecond)
	fmt.Printf("healthy:        route 0→1 is %s\n", route(0, 1))
	must(daemons[0].SendData(1, []byte("over the primary rail")))
	time.Sleep(50 * time.Millisecond) // let the datagram land before unplugging

	// Unplug node 1's rail-0 NIC.
	transports[1].nicUp[0].Store(false)
	time.Sleep(500 * time.Millisecond)
	fmt.Printf("nic(1,0) dead:  route 0→1 is %s\n", route(0, 1))
	must(daemons[0].SendData(1, []byte("over the second rail")))

	// Now also unplug node 0's rail-1 NIC: no direct path remains and
	// the daemons must find a relay by broadcast.
	transports[0].nicUp[1].Store(false)
	time.Sleep(700 * time.Millisecond)
	fmt.Printf("cross-rail cut: route 0→1 is %s\n", route(0, 1))
	must(daemons[0].SendData(1, []byte("through a relay server")))

	time.Sleep(300 * time.Millisecond)
	deliveredMu.Lock()
	defer deliveredMu.Unlock()
	for _, line := range delivered {
		fmt.Println("delivered:", line)
	}
	if len(delivered) != 3 {
		log.Fatalf("delivered %d of 3 datagrams", len(delivered))
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
