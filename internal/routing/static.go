package routing

import (
	"fmt"
	"sync"

	"drsnet/internal/metrics"
	"drsnet/internal/routing/wire"
	"drsnet/internal/transport"
)

// Static is the no-fault-tolerance baseline: every datagram goes
// directly to its destination on a fixed rail. If that rail or either
// NIC on it fails, traffic is silently lost forever — the behaviour of
// a cluster with a single network and no routing protocol at all.
type Static struct {
	mu      sync.Mutex
	tr      transport.Transport
	rail    int
	deliver func(src int, data []byte)
	mset    *metrics.Set
	seq     uint32
	started bool
	stopped bool
}

// NewStatic returns a static router pinning traffic to rail.
func NewStatic(tr transport.Transport, rail int) (*Static, error) {
	if tr == nil {
		return nil, fmt.Errorf("routing: nil transport")
	}
	if rail < 0 || rail >= tr.Rails() {
		return nil, fmt.Errorf("routing: rail %d out of range [0,%d)", rail, tr.Rails())
	}
	return &Static{tr: tr, rail: rail, mset: metrics.NewSet()}, nil
}

// Start implements Router.
func (s *Static) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return fmt.Errorf("routing: static router started twice")
	}
	s.started = true
	s.tr.SetReceiver(s.onFrame)
	return nil
}

// Stop implements Router.
func (s *Static) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopped = true
}

// SetDeliverFunc implements Router.
func (s *Static) SetDeliverFunc(fn func(src int, data []byte)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.deliver = fn
}

// Metrics implements Router.
func (s *Static) Metrics() *metrics.Set { return s.mset }

// SendData implements Router.
func (s *Static) SendData(dst int, data []byte) error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return ErrStopped
	}
	if dst < 0 || dst >= s.tr.Nodes() || dst == s.tr.Node() {
		s.mu.Unlock()
		return fmt.Errorf("routing: bad destination %d", dst)
	}
	s.seq++
	h := wire.DataHeader{Origin: uint16(s.tr.Node()), Final: uint16(dst), TTL: 1, Seq: s.seq}
	s.mu.Unlock()

	s.mset.Counter(CtrDataSent).Inc()
	return s.tr.Send(s.rail, dst, wire.Envelope(wire.ProtoData, wire.MarshalData(h, data)))
}

func (s *Static) onFrame(rail, src int, payload []byte) {
	proto, body, err := wire.SplitEnvelope(payload)
	if err != nil || proto != wire.ProtoData {
		return
	}
	h, data, err := wire.UnmarshalData(body)
	if err != nil {
		return
	}
	if int(h.Final) != s.tr.Node() {
		// Static routers never forward.
		s.mset.Counter(CtrDataDropped).Inc()
		return
	}
	s.mu.Lock()
	deliver := s.deliver
	stopped := s.stopped
	s.mu.Unlock()
	if stopped || deliver == nil {
		return
	}
	s.mset.Counter(CtrDataDelivered).Inc()
	deliver(int(h.Origin), data)
}

var _ Router = (*Static)(nil)
