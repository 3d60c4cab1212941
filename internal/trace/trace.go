// Package trace records structured protocol events during
// simulations: probes, failures detected, routes repaired, packets
// forwarded. Experiments read the log to measure detection and
// recovery latency; the drsim tool prints it for debugging.
package trace

import (
	"fmt"
	"sync"
	"time"
)

// Kind classifies an event.
type Kind int

// Event kinds emitted by the protocol implementations.
const (
	KindProbeSent Kind = iota
	KindProbeReply
	KindLinkDown
	KindLinkUp
	KindRouteInstalled
	KindRouteLost
	KindQuerySent
	KindOfferSent
	KindDataForwarded
	KindDataDropped
	KindDataDelivered
	// KindRouteDamped marks a recovered link held down by route-flap
	// damping (not re-trusted); KindRouteUndamped marks its release.
	KindRouteDamped
	KindRouteUndamped
	// KindNodeCrashed and KindNodeRestarted mark daemon fail-stop and
	// recovery in the crash–restart lifecycle; KindPeerRejoined marks
	// a daemon observing a peer's newer incarnation (a reboot) and
	// purging state from the previous life.
	KindNodeCrashed
	KindNodeRestarted
	KindPeerRejoined
	// KindDegradedEnter and KindDegradedExit bracket an overload
	// degraded-mode episode: budget saturation entered it, a sustained
	// quiet period ended it. KindRoutePinned marks a route the
	// degraded node kept (last-known-good) instead of churning.
	KindDegradedEnter
	KindDegradedExit
	KindRoutePinned
)

var kindNames = map[Kind]string{
	KindProbeSent:      "probe-sent",
	KindProbeReply:     "probe-reply",
	KindLinkDown:       "link-down",
	KindLinkUp:         "link-up",
	KindRouteInstalled: "route-installed",
	KindRouteLost:      "route-lost",
	KindQuerySent:      "query-sent",
	KindOfferSent:      "offer-sent",
	KindDataForwarded:  "data-forwarded",
	KindDataDropped:    "data-dropped",
	KindDataDelivered:  "data-delivered",
	KindRouteDamped:    "route-damped",
	KindRouteUndamped:  "route-undamped",
	KindNodeCrashed:    "node-crashed",
	KindNodeRestarted:  "node-restarted",
	KindPeerRejoined:   "peer-rejoined",
	KindDegradedEnter:  "degraded-enter",
	KindDegradedExit:   "degraded-exit",
	KindRoutePinned:    "route-pinned",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one protocol occurrence.
type Event struct {
	At     time.Duration // simulated (or wall) time since start
	Node   int           // node the event happened on
	Kind   Kind
	Peer   int    // peer node involved, -1 when not applicable
	Rail   int    // rail involved, -1 when not applicable
	Detail string // free-form context
}

// String renders the event compactly.
func (e Event) String() string {
	return fmt.Sprintf("%12v node=%d %-15s peer=%d rail=%d %s",
		e.At, e.Node, e.Kind, e.Peer, e.Rail, e.Detail)
}

// Log is a bounded, concurrency-safe event log. When the bound is
// reached, the oldest half of the events is discarded (matching the
// historical batch-eviction retention, but in O(1): the storage is a
// ring, so eviction moves a cursor instead of copying megabytes).
type Log struct {
	mu      sync.Mutex
	ring    []Event // ring storage; grows geometrically up to max
	start   int     // index of the oldest retained event
	n       int     // number of retained events
	max     int
	dropped int64
}

// NewLog returns a log retaining at most max events (0 means a
// generous default of 1<<16).
func NewLog(max int) *Log {
	if max <= 0 {
		max = 1 << 16
	}
	return &Log{max: max}
}

// Append records an event.
func (l *Log) Append(e Event) {
	l.mu.Lock()
	if l.n == len(l.ring) {
		if len(l.ring) < l.max {
			// Grow geometrically, linearizing the ring.
			newCap := len(l.ring) * 2
			if newCap == 0 {
				newCap = 256
			}
			if newCap > l.max {
				newCap = l.max
			}
			grown := make([]Event, newCap)
			l.copyOut(grown)
			l.ring = grown
			l.start = 0
		} else {
			// Full: drop the oldest half by advancing the cursor.
			half := l.max / 2
			if half == 0 {
				half = 1
			}
			l.start += half
			if l.start >= len(l.ring) {
				l.start -= len(l.ring)
			}
			l.n -= half
			l.dropped += int64(half)
		}
	}
	idx := l.start + l.n
	if idx >= len(l.ring) {
		idx -= len(l.ring)
	}
	l.ring[idx] = e
	l.n++
	l.mu.Unlock()
}

// copyOut linearizes the retained events into dst (len(dst) ≥ l.n).
func (l *Log) copyOut(dst []Event) {
	first := len(l.ring) - l.start
	if first > l.n {
		first = l.n
	}
	copy(dst, l.ring[l.start:l.start+first])
	copy(dst[first:], l.ring[:l.n-first])
}

// Fork returns a copy of the log, for a forked simulation: the same
// retained events, capacity and drop count, so both logs go on
// retaining and dropping alike.
func (l *Log) Fork() *Log {
	l.mu.Lock()
	defer l.mu.Unlock()
	f := &Log{n: l.n, max: l.max, dropped: l.dropped}
	if len(l.ring) > 0 {
		f.ring = make([]Event, len(l.ring))
		l.copyOut(f.ring)
	}
	return f
}

// Events returns a copy of the retained events in append order.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, l.n)
	l.copyOut(out)
	return out
}

// at returns the i-th retained event (0 = oldest). Caller holds mu.
func (l *Log) at(i int) Event {
	idx := l.start + i
	if idx >= len(l.ring) {
		idx -= len(l.ring)
	}
	return l.ring[idx]
}

// Filter returns the retained events of the given kind, in order.
func (l *Log) Filter(k Kind) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []Event
	for i := 0; i < l.n; i++ {
		if e := l.at(i); e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// First returns the earliest retained event of kind k matching node
// (node < 0 matches any), and whether one exists.
func (l *Log) First(k Kind, node int) (Event, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := 0; i < l.n; i++ {
		if e := l.at(i); e.Kind == k && (node < 0 || e.Node == node) {
			return e, true
		}
	}
	return Event{}, false
}

// Count returns the number of retained events of kind k.
func (l *Log) Count(k Kind) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for i := 0; i < l.n; i++ {
		if l.at(i).Kind == k {
			n++
		}
	}
	return n
}
