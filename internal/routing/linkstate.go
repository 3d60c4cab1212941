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

// LinkState is an OSPF-style baseline, the second traditional protocol
// the paper names ("RIP, OSPF, EGP and BGP are routing solutions to
// many different routing problems, however, they do not address the
// needs of a high availability server cluster environment"). Like
// OSPF it builds adjacencies from periodic hellos, floods link-state
// advertisements, and routes over shortest paths computed from the
// link-state database. Like every reactive protocol, it discovers
// failures only when a timer expires: a dead neighbor is noticed after
// the router-dead interval, re-flooded, and routed around — faster
// than RIP-style route timeouts, still far slower than the DRS's
// proactive link checks.
//
// The implementation composes the shared building blocks: hellos ride
// on a linkmon.Rounds loop, adjacency liveness is a linkmon.Deadlines
// matrix, LSAs travel in the wire package's codec, and datagrams flow
// through a dataplane.Plane. Only the SPF computation and the flooding
// discipline are LinkState's own.
type LinkState struct {
	cfg   LinkStateConfig
	tr    transport.Transport
	clock clock.Clock
	mset  *metrics.Set

	mu      sync.Mutex
	started bool
	stopped bool
	deliver func(src int, data []byte)
	lsaSeq  uint32

	// adjacency holds the expiry of each hello-learned (peer, rail)
	// adjacency.
	adjacency *linkmon.Deadlines
	// lsdb[origin] is the freshest LSA heard (nil = none).
	lsdb []*lsa
	// routes[dst] is the SPF result: first hop and rail.
	routes []lsRoute

	plane  *dataplane.Plane
	rounds *linkmon.Rounds
}

type lsRoute struct {
	valid bool
	via   int
	rail  int
}

// lsa is a database entry: the advertisement itself plus when this
// router heard it (for aging).
type lsa struct {
	wire.LSA
	heardAt time.Duration
}

// LinkStateConfig tunes the OSPF-lite baseline.
type LinkStateConfig struct {
	// HelloInterval is the adjacency heartbeat (OSPF default 10 s;
	// LAN-scaled default 1 s).
	HelloInterval time.Duration
	// DeadInterval declares a silent neighbor down (OSPF uses
	// 4 × hello; same default here).
	DeadInterval time.Duration
	// LSAMaxAge expires database entries that were never refreshed.
	LSAMaxAge time.Duration
	// DataTTL bounds forwarding hops.
	DataTTL int
	// QueueCapacity, when positive, buffers up to that many datagrams
	// per destination while SPF has no route and flushes them when one
	// installs; overflow evicts the oldest (counted by queue.overflow).
	// Zero — the default — keeps the traditional baseline behavior:
	// SendData fails immediately with ErrNoRoute.
	QueueCapacity int
	// Trace receives protocol events if non-nil.
	Trace *trace.Log
}

// DefaultLinkStateConfig returns the LAN-scaled OSPF-like defaults.
func DefaultLinkStateConfig() LinkStateConfig {
	return LinkStateConfig{
		HelloInterval: time.Second,
		DeadInterval:  4 * time.Second,
		LSAMaxAge:     30 * time.Second,
		DataTTL:       8,
	}
}

func (c *LinkStateConfig) normalize() error {
	if c.HelloInterval <= 0 {
		return fmt.Errorf("routing: hello interval must be positive")
	}
	if c.DeadInterval == 0 {
		c.DeadInterval = 4 * c.HelloInterval
	}
	if c.DeadInterval < c.HelloInterval {
		return fmt.Errorf("routing: dead interval below hello interval")
	}
	if c.LSAMaxAge == 0 {
		c.LSAMaxAge = 30 * c.HelloInterval
	}
	if c.LSAMaxAge < c.DeadInterval {
		return fmt.Errorf("routing: LSA max age below dead interval")
	}
	if c.DataTTL <= 0 {
		c.DataTTL = 8
	}
	if c.QueueCapacity < 0 {
		return fmt.Errorf("routing: negative queue capacity")
	}
	return nil
}

// NewLinkState returns an OSPF-lite router over tr.
func NewLinkState(tr transport.Transport, clock clock.Clock, cfg LinkStateConfig) (*LinkState, error) {
	if tr == nil || clock == nil {
		return nil, fmt.Errorf("routing: nil transport or clock")
	}
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	mset := metrics.NewSet()
	ls := &LinkState{
		cfg:       cfg,
		tr:        tr,
		clock:     clock,
		mset:      mset,
		adjacency: linkmon.NewDeadlines(tr.Nodes(), tr.Rails()),
		lsdb:      make([]*lsa, tr.Nodes()),
		routes:    make([]lsRoute, tr.Nodes()),
		plane: dataplane.New(tr.Node(), tr.Nodes(), cfg.DataTTL,
			cfg.QueueCapacity, mset.Counter(CtrQueueOverflow)),
		rounds: linkmon.NewRounds(clock),
	}
	return ls, nil
}

// Start implements Router.
func (ls *LinkState) Start() error {
	ls.mu.Lock()
	if ls.started {
		ls.mu.Unlock()
		return fmt.Errorf("routing: link-state router started twice")
	}
	ls.started = true
	ls.mu.Unlock()
	ls.tr.SetReceiver(ls.onFrame)
	ls.rounds.Run(ls.cfg.HelloInterval, ls.helloRound)
	return nil
}

// Stop implements Router.
func (ls *LinkState) Stop() {
	ls.mu.Lock()
	ls.stopped = true
	ls.mu.Unlock()
	ls.rounds.Stop()
}

// SetDeliverFunc implements Router.
func (ls *LinkState) SetDeliverFunc(fn func(src int, data []byte)) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.deliver = fn
}

// Metrics implements Router.
func (ls *LinkState) Metrics() *metrics.Set { return ls.mset }

// helloRound is the periodic round body: send hellos, expire
// adjacencies and stale LSAs, refresh our own LSA. The Rounds loop
// reschedules it after it returns.
func (ls *LinkState) helloRound() {
	ls.mu.Lock()
	if ls.stopped {
		ls.mu.Unlock()
		return
	}
	now := ls.clock.Now()

	// Expire adjacencies that have gone silent; note whether anything
	// changed so the LSA gets re-originated.
	changed := ls.adjacency.Sweep(now, func(peer, rail int) {
		ls.event(trace.Event{At: now, Node: ls.tr.Node(), Kind: trace.KindLinkDown,
			Peer: peer, Rail: rail, Detail: "adjacency expired"})
	})
	// Age out LSDB entries (other routers crashed without retracting).
	for origin, entry := range ls.lsdb {
		if entry != nil && now-entry.heardAt > ls.cfg.LSAMaxAge {
			ls.lsdb[origin] = nil
			changed = true
		}
	}
	ls.mu.Unlock()

	// Hellos on every rail.
	hello := wire.Envelope(wire.ProtoControl, wire.MarshalLSHello())
	for rail := 0; rail < ls.tr.Rails(); rail++ {
		_ = ls.tr.Send(rail, transport.Broadcast, hello)
	}
	ls.mset.Counter(CtrProbesSent).Inc() // hellos are this protocol's probes

	// Re-originate our LSA every round (it doubles as the refresh),
	// and recompute routes if the topology view moved.
	ls.originateLSA()
	if changed {
		ls.recompute()
	}
}

// originateLSA floods this node's current adjacency list.
func (ls *LinkState) originateLSA() {
	ls.mu.Lock()
	now := ls.clock.Now()
	ls.lsaSeq++
	entry := &lsa{LSA: wire.LSA{Origin: uint16(ls.tr.Node()), Seq: ls.lsaSeq}, heardAt: now}
	for peer := 0; peer < ls.tr.Nodes(); peer++ {
		for rail := 0; rail < ls.tr.Rails(); rail++ {
			if ls.adjacency.Alive(peer, rail, now) {
				entry.Neighbors = append(entry.Neighbors,
					wire.Adjacency{Node: uint16(peer), Rail: uint16(rail)})
			}
		}
	}
	ls.lsdb[ls.tr.Node()] = entry
	payload := wire.Envelope(wire.ProtoControl, wire.MarshalLSA(entry.LSA))
	ls.mu.Unlock()

	for rail := 0; rail < ls.tr.Rails(); rail++ {
		_ = ls.tr.Send(rail, transport.Broadcast, payload)
	}
	ls.mset.Counter(CtrAdvertsSent).Inc()
}

func (ls *LinkState) onFrame(rail, src int, payload []byte) {
	proto, body, err := wire.SplitEnvelope(payload)
	if err != nil {
		return
	}
	switch proto {
	case wire.ProtoControl:
		if len(body) == 0 {
			return
		}
		switch body[0] {
		case wire.MsgLSHello:
			ls.onHello(rail, src)
		case wire.MsgLSA:
			ls.onLSA(body)
		}
	case wire.ProtoData:
		ls.onData(body)
	}
}

func (ls *LinkState) onHello(rail, src int) {
	ls.mu.Lock()
	if ls.stopped || src == ls.tr.Node() {
		ls.mu.Unlock()
		return
	}
	now := ls.clock.Now()
	wasDown := ls.adjacency.Refresh(src, rail, now, now+ls.cfg.DeadInterval)
	ls.mu.Unlock()
	if wasDown {
		ls.event(trace.Event{At: now, Node: ls.tr.Node(), Kind: trace.KindLinkUp,
			Peer: src, Rail: rail, Detail: "adjacency formed"})
		// Topology changed from our vantage point: re-originate and
		// recompute immediately (OSPF's event-driven flooding).
		ls.originateLSA()
		ls.recompute()
	}
}

func (ls *LinkState) onLSA(body []byte) {
	entry, err := wire.UnmarshalLSA(body)
	if err != nil {
		return
	}
	origin := int(entry.Origin)
	if origin < 0 || origin >= ls.tr.Nodes() || origin == ls.tr.Node() {
		return
	}
	ls.mset.Counter(CtrAdvertsRecv).Inc()
	ls.mu.Lock()
	if ls.stopped {
		ls.mu.Unlock()
		return
	}
	existing := ls.lsdb[origin]
	if existing != nil && entry.Seq <= existing.Seq {
		ls.mu.Unlock()
		return // stale or duplicate: do not re-flood (flooding terminates)
	}
	ls.lsdb[origin] = &lsa{LSA: entry, heardAt: ls.clock.Now()}
	payload := wire.Envelope(wire.ProtoControl, wire.MarshalLSA(entry))
	ls.mu.Unlock()

	// Re-flood the news on every rail so it crosses rail boundaries.
	for rail := 0; rail < ls.tr.Rails(); rail++ {
		_ = ls.tr.Send(rail, transport.Broadcast, payload)
	}
	ls.recompute()
}

// recompute runs SPF over the LSDB. An edge (a, b, rail) exists only
// when both endpoints advertise it (OSPF's bidirectionality check).
func (ls *LinkState) recompute() {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	n := ls.tr.Nodes()
	self := ls.tr.Node()
	now := ls.clock.Now()

	claims := func(a, b, rail int) bool {
		if a == self {
			return ls.adjacency.Alive(b, rail, now)
		}
		e := ls.lsdb[a]
		if e == nil {
			return false
		}
		for _, nb := range e.Neighbors {
			if int(nb.Node) == b && int(nb.Rail) == rail {
				return true
			}
		}
		return false
	}

	// BFS from self over bidirectional edges; hop count is the metric
	// (all links are equal-cost 100 Mb/s).
	type hop struct {
		via  int
		rail int
	}
	first := make([]hop, n)
	visited := make([]bool, n)
	visited[self] = true
	queue := []int{self}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for next := 0; next < n; next++ {
			if visited[next] || next == cur {
				continue
			}
			for rail := 0; rail < ls.tr.Rails(); rail++ {
				if claims(cur, next, rail) && claims(next, cur, rail) {
					visited[next] = true
					if cur == self {
						first[next] = hop{via: next, rail: rail}
					} else {
						first[next] = first[cur]
					}
					queue = append(queue, next)
					break
				}
			}
		}
	}
	for dst := 0; dst < n; dst++ {
		if dst == self {
			continue
		}
		prev := ls.routes[dst]
		if visited[dst] {
			ls.routes[dst] = lsRoute{valid: true, via: first[dst].via, rail: first[dst].rail}
		} else {
			ls.routes[dst] = lsRoute{}
		}
		if prev != ls.routes[dst] {
			ls.mset.Counter(CtrRepairs).Inc()
			ls.event(trace.Event{At: now, Node: self, Kind: trace.KindRouteInstalled,
				Peer: dst, Rail: ls.routes[dst].rail,
				Detail: fmt.Sprintf("spf via %d (valid=%v)", ls.routes[dst].via, ls.routes[dst].valid)})
			// A freshly usable route releases any datagrams that queued
			// while SPF had nowhere to send them (queueing mode only).
			if rt := ls.routes[dst]; rt.valid {
				for _, frame := range ls.plane.Flush(dst) {
					ls.mset.Counter(CtrDataSent).Inc()
					_ = ls.tr.Send(rt.rail, rt.via, frame)
				}
			}
		}
	}
}

// SendData implements Router.
func (ls *LinkState) SendData(dst int, data []byte) error {
	ls.mu.Lock()
	if ls.stopped {
		ls.mu.Unlock()
		return ErrStopped
	}
	if dst < 0 || dst >= ls.tr.Nodes() || dst == ls.tr.Node() {
		ls.mu.Unlock()
		return fmt.Errorf("routing: bad destination %d", dst)
	}
	rt := ls.routes[dst]
	if !rt.valid {
		if ls.plane.CanQueue() {
			ls.plane.Enqueue(dst, ls.plane.NewFrame(dst, data))
			ls.mu.Unlock()
			return nil
		}
		ls.mu.Unlock()
		ls.mset.Counter(CtrDataNoRoute).Inc()
		return ErrNoRoute
	}
	frame := ls.plane.NewFrame(dst, data)
	ls.mu.Unlock()
	ls.mset.Counter(CtrDataSent).Inc()
	return ls.tr.Send(rt.rail, rt.via, frame)
}

func (ls *LinkState) onData(body []byte) {
	h, data, act := ls.plane.Classify(body)
	switch act {
	case dataplane.Deliver:
		ls.mu.Lock()
		deliver := ls.deliver
		stopped := ls.stopped
		ls.mu.Unlock()
		if stopped || deliver == nil {
			return
		}
		ls.mset.Counter(CtrDataDelivered).Inc()
		deliver(int(h.Origin), data)
	case dataplane.Drop:
		ls.mset.Counter(CtrDataDropped).Inc()
	case dataplane.Forward:
		final := int(h.Final)
		ls.mu.Lock()
		rt := ls.routes[final]
		stopped := ls.stopped
		ls.mu.Unlock()
		if stopped || !rt.valid {
			ls.mset.Counter(CtrDataDropped).Inc()
			return
		}
		ls.mset.Counter(CtrDataForwarded).Inc()
		_ = ls.tr.Send(rt.rail, rt.via, dataplane.Frame(h, data))
	}
}

// RouteVia reports the current first hop toward dst (testing hook).
func (ls *LinkState) RouteVia(dst int) (via, rail int, ok bool) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	rt := ls.routes[dst]
	return rt.via, rt.rail, rt.valid
}

func (ls *LinkState) event(e trace.Event) {
	if ls.cfg.Trace != nil {
		ls.cfg.Trace.Append(e)
	}
}

var _ Router = (*LinkState)(nil)
