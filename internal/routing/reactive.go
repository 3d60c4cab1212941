package routing

import (
	"fmt"
	"sync"
	"time"

	"drsnet/internal/clock"
	"drsnet/internal/dataplane"
	"drsnet/internal/linkmon"
	"drsnet/internal/metrics"
	"drsnet/internal/routing/wire"
	"drsnet/internal/trace"
	"drsnet/internal/transport"
)

// ReactiveConfig parameterizes the RIP-like baseline. The defaults
// mirror RIP's shape (advertisements every interval, routes expiring
// after six intervals) at LAN-appropriate scale.
type ReactiveConfig struct {
	// AdvertiseInterval is the period between advertisement
	// broadcasts on every rail.
	AdvertiseInterval time.Duration
	// RouteTimeout is how long a learned route stays valid without
	// being refreshed. RIP uses 6× the advertisement interval
	// (180 s / 30 s); the default preserves that ratio.
	RouteTimeout time.Duration
	// DataTTL bounds forwarding hops.
	DataTTL int
	// Trace, if non-nil, receives protocol events.
	Trace *trace.Log
}

// DefaultReactiveConfig returns the baseline configuration used by the
// proactive-vs-reactive experiments: 1 s advertisements, 6 s timeout.
func DefaultReactiveConfig() ReactiveConfig {
	return ReactiveConfig{
		AdvertiseInterval: time.Second,
		RouteTimeout:      6 * time.Second,
		DataTTL:           4,
	}
}

func (c *ReactiveConfig) normalize() error {
	if c.AdvertiseInterval <= 0 {
		return fmt.Errorf("routing: advertise interval must be positive")
	}
	if c.RouteTimeout == 0 {
		c.RouteTimeout = 6 * c.AdvertiseInterval
	}
	if c.RouteTimeout < c.AdvertiseInterval {
		return fmt.Errorf("routing: route timeout %v below advertise interval %v",
			c.RouteTimeout, c.AdvertiseInterval)
	}
	if c.DataTTL <= 0 {
		c.DataTTL = 4
	}
	return nil
}

// Reactive is a deliberately traditional distance-vector router:
// periodic advertisements, timeout-driven failure discovery, no
// probing. After a component fails, traffic keeps flowing into the
// dead path until the stale route expires — the recovery latency the
// DRS's proactive link checks are designed to eliminate.
//
// It is built from the same shared layers as the other protocols: the
// advertisement loop is a linkmon.Rounds, the route timeouts are a
// linkmon.Deadlines matrix, and datagram mechanics live in a
// dataplane.Plane. Only the distance-vector policy is Reactive's own.
type Reactive struct {
	cfg   ReactiveConfig
	tr    transport.Transport
	clock clock.Clock
	mset  *metrics.Set

	mu      sync.Mutex
	started bool
	stopped bool
	deliver func(src int, data []byte)
	// direct holds the expiry of the direct route learned by hearing
	// peer's advertisement on each rail.
	direct *linkmon.Deadlines
	// twoHop[peer] is a relay route learned from an advertisement
	// listing peer as reachable.
	twoHop []twoHopRoute

	plane  *dataplane.Plane
	rounds *linkmon.Rounds
}

type twoHopRoute struct {
	via    int
	rail   int
	expiry time.Duration
}

// NewReactive returns a reactive router over tr driven by clock.
func NewReactive(tr transport.Transport, clock clock.Clock, cfg ReactiveConfig) (*Reactive, error) {
	if tr == nil || clock == nil {
		return nil, fmt.Errorf("routing: nil transport or clock")
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	mset := metrics.NewSet()
	r := &Reactive{
		cfg:    cfg,
		tr:     tr,
		clock:  clock,
		mset:   mset,
		direct: linkmon.NewDeadlines(tr.Nodes(), tr.Rails()),
		twoHop: make([]twoHopRoute, tr.Nodes()),
		// Queueing stays disabled (capacity 0): a distance-vector
		// router has no discovery to wait on, so a routeless datagram
		// fails fast instead.
		plane:  dataplane.New(tr.Node(), tr.Nodes(), cfg.DataTTL, 0, mset.Counter(CtrQueueOverflow)),
		rounds: linkmon.NewRounds(clock),
	}
	return r, nil
}

// Start implements Router: it installs the receiver, advertises
// immediately, and begins the periodic advertisement loop.
func (r *Reactive) Start() error {
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return fmt.Errorf("routing: reactive router started twice")
	}
	r.started = true
	r.mu.Unlock()
	r.tr.SetReceiver(r.onFrame)
	r.rounds.Run(r.cfg.AdvertiseInterval, r.advertise)
	return nil
}

// Stop implements Router.
func (r *Reactive) Stop() {
	r.mu.Lock()
	r.stopped = true
	r.mu.Unlock()
	r.rounds.Stop()
}

// SetDeliverFunc implements Router.
func (r *Reactive) SetDeliverFunc(fn func(src int, data []byte)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.deliver = fn
}

// Metrics implements Router.
func (r *Reactive) Metrics() *metrics.Set { return r.mset }

// advertise broadcasts the advertisement on every rail; the Rounds
// loop reschedules it after it returns.
func (r *Reactive) advertise() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	now := r.clock.Now()
	var reachable []uint16
	for peer := 0; peer < r.tr.Nodes(); peer++ {
		if peer == r.tr.Node() {
			continue
		}
		if r.direct.AnyAlive(peer, now) {
			reachable = append(reachable, uint16(peer))
		}
	}
	r.mu.Unlock()

	body, err := wire.MarshalAdvert(wire.Advert{Reachable: reachable})
	if err == nil {
		for rail := 0; rail < r.tr.Rails(); rail++ {
			if err := r.tr.Send(rail, transport.Broadcast, wire.Envelope(wire.ProtoAdvert, body)); err == nil {
				r.mset.Counter(CtrAdvertsSent).Inc()
			}
		}
	}
}

func (r *Reactive) onFrame(rail, src int, payload []byte) {
	proto, body, err := wire.SplitEnvelope(payload)
	if err != nil {
		return
	}
	switch proto {
	case wire.ProtoAdvert:
		r.onAdvert(rail, src, body)
	case wire.ProtoData:
		r.onData(rail, src, body)
	}
}

func (r *Reactive) onAdvert(rail, src int, body []byte) {
	adv, err := wire.UnmarshalAdvert(body)
	if err != nil {
		return
	}
	r.mset.Counter(CtrAdvertsRecv).Inc()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.stopped {
		return
	}
	now := r.clock.Now()
	expiry := now + r.cfg.RouteTimeout
	wasUp := r.direct.AnyAlive(src, now)
	r.direct.Refresh(src, rail, now, expiry)
	if !wasUp {
		r.event(trace.Event{At: now, Node: r.tr.Node(), Kind: trace.KindRouteInstalled,
			Peer: src, Rail: rail, Detail: "direct (advert)"})
	}
	for _, p := range adv.Reachable {
		peer := int(p)
		if peer == r.tr.Node() || peer < 0 || peer >= r.tr.Nodes() || peer == src {
			continue
		}
		// Prefer the freshest relay.
		if r.twoHop[peer].expiry < expiry {
			r.twoHop[peer] = twoHopRoute{via: src, rail: rail, expiry: expiry}
		}
	}
}

// SendData implements Router.
func (r *Reactive) SendData(dst int, data []byte) error {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return ErrStopped
	}
	if dst < 0 || dst >= r.tr.Nodes() || dst == r.tr.Node() {
		r.mu.Unlock()
		return fmt.Errorf("routing: bad destination %d", dst)
	}
	// The sequence number advances even when routing fails — the next
	// datagram that does get out keeps a gap-free view of what was
	// attempted.
	frame := r.plane.NewFrame(dst, data)
	rail, via, ok := r.routeLocked(dst)
	r.mu.Unlock()
	if !ok {
		r.mset.Counter(CtrDataNoRoute).Inc()
		return ErrNoRoute
	}
	r.mset.Counter(CtrDataSent).Inc()
	return r.tr.Send(rail, via, frame)
}

// routeLocked picks the next hop for dst: the freshest-enough direct
// rail first, then a two-hop relay.
func (r *Reactive) routeLocked(dst int) (rail, via int, ok bool) {
	now := r.clock.Now()
	if rail, ok := r.direct.FirstAlive(dst, now); ok {
		return rail, dst, true
	}
	if th := r.twoHop[dst]; th.expiry > now {
		return th.rail, th.via, true
	}
	return 0, 0, false
}

func (r *Reactive) onData(rail, src int, body []byte) {
	h, data, act := r.plane.Classify(body)
	switch act {
	case dataplane.Deliver:
		r.mu.Lock()
		deliver := r.deliver
		stopped := r.stopped
		r.mu.Unlock()
		if stopped || deliver == nil {
			return
		}
		r.mset.Counter(CtrDataDelivered).Inc()
		deliver(int(h.Origin), data)
	case dataplane.Drop:
		r.mset.Counter(CtrDataDropped).Inc()
	case dataplane.Forward:
		// Forward as relay: only along a live direct route, so paths
		// stay at most two hops and cannot loop (the TTL is a
		// backstop).
		r.mu.Lock()
		stopped := r.stopped
		now := r.clock.Now()
		outRail := -1
		if rail, ok := r.direct.FirstAlive(int(h.Final), now); ok {
			outRail = rail
		}
		r.mu.Unlock()
		if stopped || outRail < 0 {
			r.mset.Counter(CtrDataDropped).Inc()
			return
		}
		r.mset.Counter(CtrDataForwarded).Inc()
		_ = r.tr.Send(outRail, int(h.Final), dataplane.Frame(h, data))
	}
}

func (r *Reactive) event(e trace.Event) {
	if r.cfg.Trace != nil {
		r.cfg.Trace.Append(e)
	}
}

var _ Router = (*Reactive)(nil)
