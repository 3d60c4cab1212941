// Package flowsim runs reliable application flows over the routing
// layer, turning the paper's "server applications are unaware that a
// network failure has occurred" from a model (package tcpmodel) into a
// measurement: an actual retransmitting transport rides the DRS (or a
// baseline router) across injected failures, and the connection-level
// outcome — stalls, retransmissions, survival — is observed.
//
// The transport is deliberately minimal TCP: stop-and-wait with
// per-segment acknowledgements, an exponential-backoff retransmission
// timer, and a retry budget after which the connection is declared
// dead. Stop-and-wait is sufficient because the question under study
// is how retransmission interacts with rerouting, not throughput.
package flowsim

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"drsnet/internal/clock"
	"drsnet/internal/routing"
)

// Wire format: [flowID uint16][kind byte][seq uint32][payload...]
const (
	kindSegment = 1
	kindAck     = 2
	headerLen   = 2 + 1 + 4
)

func marshal(flowID uint16, kind byte, seq uint32, payload []byte) []byte {
	b := make([]byte, headerLen+len(payload))
	binary.BigEndian.PutUint16(b[0:2], flowID)
	b[2] = kind
	binary.BigEndian.PutUint32(b[3:7], seq)
	copy(b[headerLen:], payload)
	return b
}

func unmarshal(b []byte) (flowID uint16, kind byte, seq uint32, payload []byte, err error) {
	if len(b) < headerLen {
		return 0, 0, 0, nil, fmt.Errorf("flowsim: frame too short")
	}
	return binary.BigEndian.Uint16(b[0:2]), b[2], binary.BigEndian.Uint32(b[3:7]), b[headerLen:], nil
}

// FlowConfig tunes the sender's retransmission behaviour. The defaults
// mirror tcpmodel.Defaults: RTO 1 s, cap 64 s, 8 retries.
type FlowConfig struct {
	RTO        time.Duration
	MaxRTO     time.Duration
	MaxRetries int
}

// DefaultFlowConfig returns the LAN-typical TCP-like configuration.
func DefaultFlowConfig() FlowConfig {
	return FlowConfig{RTO: time.Second, MaxRTO: 64 * time.Second, MaxRetries: 8}
}

func (c *FlowConfig) normalize() error {
	if c.RTO <= 0 {
		return fmt.Errorf("flowsim: RTO must be positive")
	}
	if c.MaxRTO == 0 {
		c.MaxRTO = 64 * c.RTO
	}
	if c.MaxRTO < c.RTO {
		return fmt.Errorf("flowsim: MaxRTO below RTO")
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("flowsim: negative retry budget")
	}
	return nil
}

// Endpoint multiplexes flows over one node's Router. Create one per
// node, then Dial outgoing flows and Listen for incoming ones.
type Endpoint struct {
	router routing.Router
	clock  clock.Clock

	mu      sync.Mutex
	senders map[flowKey]*Flow
	sinks   map[flowKey]*Sink
}

type flowKey struct {
	peer   int
	flowID uint16
}

// NewEndpoint wraps a started Router. It takes over the router's
// deliver callback; all application traffic on this node must flow
// through this endpoint afterwards.
func NewEndpoint(router routing.Router, clock clock.Clock) (*Endpoint, error) {
	if router == nil || clock == nil {
		return nil, fmt.Errorf("flowsim: nil router or clock")
	}
	e := &Endpoint{
		router:  router,
		clock:   clock,
		senders: make(map[flowKey]*Flow),
		sinks:   make(map[flowKey]*Sink),
	}
	router.SetDeliverFunc(e.onDeliver)
	return e, nil
}

func (e *Endpoint) onDeliver(src int, data []byte) {
	flowID, kind, seq, payload, err := unmarshal(data)
	if err != nil {
		return
	}
	key := flowKey{peer: src, flowID: flowID}
	switch kind {
	case kindSegment:
		e.mu.Lock()
		sink := e.sinks[key]
		e.mu.Unlock()
		if sink != nil {
			sink.onSegment(seq, payload)
		}
	case kindAck:
		e.mu.Lock()
		flow := e.senders[key]
		e.mu.Unlock()
		if flow != nil {
			flow.onAck(seq)
		}
	}
}

// Dial creates a sending flow to dst with the given id.
func (e *Endpoint) Dial(dst int, flowID uint16, cfg FlowConfig) (*Flow, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	f := &Flow{
		ep:     e,
		dst:    dst,
		flowID: flowID,
		cfg:    cfg,
	}
	key := flowKey{peer: dst, flowID: flowID}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.senders[key]; dup {
		return nil, fmt.Errorf("flowsim: flow %d to node %d already dialed", flowID, dst)
	}
	e.senders[key] = f
	return f, nil
}

// Listen creates a receiving sink for flow id from src.
func (e *Endpoint) Listen(src int, flowID uint16) (*Sink, error) {
	s := &Sink{ep: e, src: src, flowID: flowID}
	key := flowKey{peer: src, flowID: flowID}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.sinks[key]; dup {
		return nil, fmt.Errorf("flowsim: flow %d from node %d already listened", flowID, src)
	}
	e.sinks[key] = s
	return s, nil
}

// FlowStats summarizes a sender's experience.
type FlowStats struct {
	// Enqueued counts segments handed to the flow; Acked counts
	// segments confirmed by the receiver.
	Enqueued, Acked int
	// Retransmissions counts every resend of any segment.
	Retransmissions int
	// MaxAckStall is the longest time any single segment waited from
	// first transmission to acknowledgement — the application-visible
	// hiccup.
	MaxAckStall time.Duration
	// Dead reports whether the retry budget was exhausted (the
	// connection reset).
	Dead bool
}

// Flow is the sending half of a reliable stop-and-wait stream.
// Its methods are safe for use from router callbacks and timers.
type Flow struct {
	ep     *Endpoint
	dst    int
	flowID uint16
	cfg    FlowConfig

	mu        sync.Mutex
	queue     [][]byte
	nextSeq   uint32
	inFlight  bool
	flightSeq uint32
	sentAt    time.Duration // first transmission of the in-flight segment
	attempts  int
	rto       time.Duration
	cancel    func() bool
	stats     FlowStats
}

// Send enqueues one segment. Transmission is asynchronous; delivery is
// confirmed through Stats().Acked. Sending on a dead flow returns an
// error.
func (f *Flow) Send(data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stats.Dead {
		return fmt.Errorf("flowsim: connection reset")
	}
	f.queue = append(f.queue, append([]byte(nil), data...))
	f.stats.Enqueued++
	f.pumpLocked()
	return nil
}

// pumpLocked transmits the next segment if none is in flight.
func (f *Flow) pumpLocked() {
	if f.inFlight || len(f.queue) == 0 || f.stats.Dead {
		return
	}
	f.inFlight = true
	f.flightSeq = f.nextSeq
	f.nextSeq++
	f.attempts = 0
	f.rto = f.cfg.RTO
	f.sentAt = f.ep.clock.Now()
	f.transmitLocked()
}

// transmitLocked sends the in-flight segment and arms the timer.
func (f *Flow) transmitLocked() {
	seg := f.queue[0]
	payload := marshal(f.flowID, kindSegment, f.flightSeq, seg)
	// SendData errors (no route yet) are treated like a lost segment:
	// the retransmission timer drives recovery, exactly as TCP's
	// does.
	_ = f.ep.router.SendData(f.dst, payload)
	f.attempts++
	seq := f.flightSeq
	f.cancel = f.ep.clock.AfterFunc(f.rto, func() { f.timeout(seq) })
}

func (f *Flow) timeout(seq uint32) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.inFlight || f.flightSeq != seq || f.stats.Dead {
		return
	}
	if f.attempts > f.cfg.MaxRetries {
		f.stats.Dead = true
		f.queue = nil
		return
	}
	f.stats.Retransmissions++
	f.rto *= 2
	if f.rto > f.cfg.MaxRTO {
		f.rto = f.cfg.MaxRTO
	}
	f.transmitLocked()
}

func (f *Flow) onAck(seq uint32) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.inFlight || seq != f.flightSeq || f.stats.Dead {
		return // duplicate or stale ack
	}
	if f.cancel != nil {
		f.cancel()
	}
	f.inFlight = false
	f.queue = f.queue[1:]
	f.stats.Acked++
	if stall := f.ep.clock.Now() - f.sentAt; stall > f.stats.MaxAckStall {
		f.stats.MaxAckStall = stall
	}
	f.pumpLocked()
}

// Stats returns a snapshot of the flow's counters.
func (f *Flow) Stats() FlowStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// SinkStats summarizes a receiver's experience.
type SinkStats struct {
	// Received counts distinct segments delivered in order;
	// Duplicates counts retransmissions of already-delivered
	// segments.
	Received, Duplicates int
	// Bytes is the total in-order payload delivered.
	Bytes int
	// MaxGap is the longest time between consecutive in-order
	// deliveries.
	MaxGap time.Duration
}

// Sink is the receiving half: it acknowledges every segment and
// delivers payloads in order.
type Sink struct {
	ep     *Endpoint
	src    int
	flowID uint16

	mu       sync.Mutex
	expected uint32
	lastAt   time.Duration
	haveLast bool
	stats    SinkStats
	// deliver receives each in-order payload; only tests set it.
	deliver func(data []byte)
}

func (s *Sink) onSegment(seq uint32, payload []byte) {
	s.mu.Lock()
	var deliver func(data []byte)
	var data []byte
	// Always acknowledge: the ack for a duplicate may be the one that
	// finally gets through.
	ack := marshal(s.flowID, kindAck, seq, nil)
	switch {
	case seq == s.expected:
		s.expected++
		s.stats.Received++
		s.stats.Bytes += len(payload)
		now := s.ep.clock.Now()
		if s.haveLast {
			if gap := now - s.lastAt; gap > s.stats.MaxGap {
				s.stats.MaxGap = gap
			}
		}
		s.lastAt = now
		s.haveLast = true
		deliver = s.deliver
		data = append([]byte(nil), payload...)
	case seq < s.expected:
		s.stats.Duplicates++
	default:
		// Stop-and-wait never legitimately skips ahead; drop and do
		// not ack so the sender's view stays consistent.
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	_ = s.ep.router.SendData(s.src, ack)
	if deliver != nil {
		deliver(data)
	}
}

// Stats returns a snapshot of the sink's counters.
func (s *Sink) Stats() SinkStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
