package transport

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"drsnet/internal/metrics"
)

// Counter names a UDP transport registers when given a metrics set.
const (
	// CtrRxErrors counts socket-level receive errors (not malformed
	// datagrams — those are silent, they're the internet's problem).
	CtrRxErrors = "transport.rx_errors"
	// CtrTxErrors counts swallowed per-peer WriteToUDP errors. Sends
	// stay best-effort — the counter is how an operator sees a rail
	// quietly eating frames.
	CtrTxErrors = "transport.tx_errors"
)

// rxBackoff bounds the receive loop's exponential backoff on
// persistent socket errors: 1ms doubling to 250ms, reset on the first
// successful read.
const (
	rxBackoffMin = time.Millisecond
	rxBackoffMax = 250 * time.Millisecond
)

// UDP frame header, prepended to every wire payload. A real socket
// receives whatever the network hands it — short datagrams, stale
// traffic from a previous cluster, port scans — so the header is
// validated before any byte reaches the protocol codecs:
//
//	[0] magic 0xD7
//	[1] version
//	[2:4] source node index, big endian
const (
	udpMagic     = 0xD7
	udpVersion   = 1
	udpHeaderLen = 4
)

// maxDatagram bounds one receive; DRS control and data frames are
// far smaller, and anything larger is not ours.
const maxDatagram = 64 << 10

// UDPConfig names the sockets of one node in a cluster: where this
// node listens on each rail, and where every node (including itself,
// for index alignment) listens on each rail.
type UDPConfig struct {
	// Node is the local node index.
	Node int
	// Listen holds one local bind address per rail, e.g.
	// "127.0.0.1:7100".
	Listen []string
	// Peers holds every node's per-rail address: Peers[node][rail].
	// Row Node is ignored for sending but must be present.
	Peers [][]string
}

// UDP is a Transport over real UDP sockets, one socket per rail. It
// frames payloads with a validated header and drops anything
// malformed: wrong magic, wrong version, source index out of range,
// or a datagram shorter than the header. The callback is handed a view
// of the rail's receive buffer, valid until it returns (the Transport
// contract), and each rail's receive loop runs on its own goroutine —
// the receiver callback must be safe for concurrent invocation, as the
// contract also warns.
type UDP struct {
	node  int
	nodes int
	rails int
	conns []*net.UDPConn   // per rail
	peers [][]*net.UDPAddr // [node][rail]
	tx    []udpTx          // per rail

	mu     sync.Mutex
	recv   func(rail, src int, payload []byte)
	rxErr  *metrics.Counter
	txErr  *metrics.Counter
	closed bool
	wg     sync.WaitGroup
}

// udpTx is one rail's reusable header+payload buffer. Senders on the
// same rail serialize on mu, as they would on the socket anyway.
type udpTx struct {
	mu  sync.Mutex
	buf []byte
}

// NewUDP binds the local sockets and starts one receive loop per
// rail. It fails fast on a malformed config or an unbindable address.
func NewUDP(cfg UDPConfig) (*UDP, error) {
	rails := len(cfg.Listen)
	nodes := len(cfg.Peers)
	if rails < 1 {
		return nil, fmt.Errorf("transport: no listen addresses")
	}
	if nodes < 2 {
		return nil, fmt.Errorf("transport: need at least 2 peers, have %d", nodes)
	}
	if cfg.Node < 0 || cfg.Node >= nodes {
		return nil, fmt.Errorf("transport: node %d out of range [0,%d)", cfg.Node, nodes)
	}
	u := &UDP{node: cfg.Node, nodes: nodes, rails: rails,
		rxErr: &metrics.Counter{}, txErr: &metrics.Counter{},
		tx: make([]udpTx, rails)}
	u.peers = make([][]*net.UDPAddr, nodes)
	for i, row := range cfg.Peers {
		if len(row) != rails {
			return nil, fmt.Errorf("transport: peer %d has %d rail addresses, want %d", i, len(row), rails)
		}
		u.peers[i] = make([]*net.UDPAddr, rails)
		for r, addr := range row {
			a, err := net.ResolveUDPAddr("udp", addr)
			if err != nil {
				return nil, fmt.Errorf("transport: peer %d rail %d: %w", i, r, err)
			}
			u.peers[i][r] = a
		}
	}
	for r, addr := range cfg.Listen {
		la, err := net.ResolveUDPAddr("udp", addr)
		if err != nil {
			u.closeConns()
			return nil, fmt.Errorf("transport: listen rail %d: %w", r, err)
		}
		conn, err := net.ListenUDP("udp", la)
		if err != nil {
			u.closeConns()
			return nil, fmt.Errorf("transport: listen rail %d: %w", r, err)
		}
		u.conns = append(u.conns, conn)
	}
	for r := range u.conns {
		u.wg.Add(1)
		go u.rxLoop(r)
	}
	return u, nil
}

// Node implements Transport.
func (u *UDP) Node() int { return u.node }

// Nodes implements Transport.
func (u *UDP) Nodes() int { return u.nodes }

// Rails implements Transport.
func (u *UDP) Rails() int { return u.rails }

// SetReceiver implements Transport.
func (u *UDP) SetReceiver(fn func(rail, src int, payload []byte)) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.recv = fn
}

// SetMetrics redirects the transport's error counters into set (under
// CtrRxErrors and CtrTxErrors), so socket trouble shows up next to the
// protocol counters in a daemon's status report. Errors counted before
// the call stay on the internal counters.
func (u *UDP) SetMetrics(set *metrics.Set) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.rxErr = set.Counter(CtrRxErrors)
	u.txErr = set.Counter(CtrTxErrors)
}

// counters returns the current error counters under the lock.
func (u *UDP) counters() (rx, tx *metrics.Counter) {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.rxErr, u.txErr
}

// Send implements Transport. Sends are best-effort: a socket-level
// error on one destination is swallowed, exactly as a frame into a
// dead segment vanishes in the simulator — but counted under
// CtrTxErrors, so the quiet loss is visible in the daemon's metrics.
// Only malformed requests error.
func (u *UDP) Send(rail, dst int, payload []byte) error {
	if rail < 0 || rail >= u.rails {
		return fmt.Errorf("transport: rail %d out of range [0,%d)", rail, u.rails)
	}
	if dst != Broadcast && (dst < 0 || dst >= u.nodes) {
		return fmt.Errorf("transport: dst %d out of range [0,%d)", dst, u.nodes)
	}
	if dst == u.node {
		return nil
	}
	_, txErr := u.counters()
	tx := &u.tx[rail]
	tx.mu.Lock()
	defer tx.mu.Unlock()
	buf := append(tx.buf[:0], udpMagic, udpVersion, byte(u.node>>8), byte(u.node))
	buf = append(buf, payload...)
	tx.buf = buf
	if dst == Broadcast {
		for i := 0; i < u.nodes; i++ {
			if i != u.node {
				if _, err := u.conns[rail].WriteToUDP(buf, u.peers[i][rail]); err != nil {
					txErr.Inc()
				}
			}
		}
		return nil
	}
	if _, err := u.conns[rail].WriteToUDP(buf, u.peers[dst][rail]); err != nil {
		txErr.Inc()
	}
	return nil
}

// rxLoop reads rail's socket until Close, validating each datagram's
// header before dispatching it. Receive errors are counted and backed
// off exponentially (1ms doubling to 250ms, reset on success): a
// transient error keeps the rail alive, a persistent one — a
// force-closed socket, a dead interface — must not busy-spin a core.
func (u *UDP) rxLoop(rail int) {
	defer u.wg.Done()
	buf := make([]byte, maxDatagram)
	backoff := rxBackoffMin
	for {
		n, _, err := u.conns[rail].ReadFromUDP(buf)
		if err != nil {
			u.mu.Lock()
			closed := u.closed
			u.mu.Unlock()
			if closed {
				return
			}
			rxErr, _ := u.counters()
			rxErr.Inc()
			time.Sleep(backoff)
			if backoff *= 2; backoff > rxBackoffMax {
				backoff = rxBackoffMax
			}
			continue
		}
		backoff = rxBackoffMin
		if n < udpHeaderLen || buf[0] != udpMagic || buf[1] != udpVersion {
			continue // not ours
		}
		src := int(binary.BigEndian.Uint16(buf[2:4]))
		if src >= u.nodes || src == u.node {
			continue // forged or reflected source index
		}
		u.mu.Lock()
		recv := u.recv
		u.mu.Unlock()
		if recv == nil {
			continue
		}
		recv(rail, src, buf[udpHeaderLen:n])
	}
}

// Close shuts the sockets and waits for the receive loops to exit.
// It is idempotent.
func (u *UDP) Close() error {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return nil
	}
	u.closed = true
	u.mu.Unlock()
	u.closeConns()
	u.wg.Wait()
	return nil
}

func (u *UDP) closeConns() {
	for _, c := range u.conns {
		c.Close()
	}
}

var _ Transport = (*UDP)(nil)
