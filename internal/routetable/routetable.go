// Package routetable holds the route state of a DRS-style daemon: the
// per-destination route, the record of completed repairs (the unit of
// every recovery-latency experiment), and the lifecycle of relay
// discoveries — the query sequence numbers, the one-in-flight-per-
// target rule, the offer matching, and the duplicate-query dedupe
// cache.
//
// The table is pure bookkeeping: it sends nothing and schedules
// nothing. The owning protocol serializes access under its own lock
// and drives timers itself, which keeps the deterministic simulation
// schedule entirely in the protocol's hands.
package routetable

import (
	"fmt"
	"maps"
	"time"

	"drsnet/internal/overload"
)

// Kind classifies an installed route.
type Kind int

// Route kinds.
const (
	// None means the destination is currently unreachable (or
	// discovery is in flight).
	None Kind = iota
	// Direct sends straight to the destination on a rail.
	Direct
	// Relay sends through another server that can reach the
	// destination.
	Relay
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Direct:
		return "direct"
	case Relay:
		return "relay"
	default:
		// The type was once core.RouteKind; its diagnostic format
		// stays.
		return fmt.Sprintf("RouteKind(%d)", int(k))
	}
}

// Route describes the current path to one destination.
type Route struct {
	Kind Kind
	Rail int // rail the first hop uses
	Via  int // next-hop node (== destination for direct routes)
}

// Repair records one completed route repair.
type Repair struct {
	Peer       int
	LostAt     time.Duration // when the previous route became unusable
	RepairedAt time.Duration // when the replacement was installed
	Route      Route         // the replacement
}

// Latency returns the repair latency.
func (r Repair) Latency() time.Duration { return r.RepairedAt - r.LostAt }

// Discovery is one in-flight relay discovery.
type Discovery struct {
	// Seq is the query sequence the answering offer must echo.
	Seq uint32
	// LostAt anchors the repair-latency measurement; a retry after a
	// timeout carries the original loss time forward.
	LostAt time.Duration
	// Cancel stops the discovery's timeout timer.
	Cancel func() bool
}

// Table is one node's route state.
type Table struct {
	routes  []Route
	repairs []Repair
	// pending discoveries by target (at most one per target).
	pending  map[int]*Discovery
	querySeq uint32
	// seen dedupes heard queries by (origin, seq) across rails and
	// rebroadcasts.
	seen map[uint64]time.Duration
	// seenSwept is when seen was last swept of expired entries.
	seenSwept time.Duration
	// queryBudget, when non-nil, rate-limits discovery broadcasts
	// (see budget.go). Nil means unbudgeted.
	queryBudget *overload.Bucket
}

// New returns an empty table for a cluster of nodes.
func New(nodes int) *Table {
	return &Table{
		routes:  make([]Route, nodes),
		pending: make(map[int]*Discovery),
		seen:    make(map[uint64]time.Duration),
	}
}

// Fork returns a copy of the table, for a forked simulation: into
// overwritten in place, its storage reused, or a new table when into
// is nil. A pending discovery's timeout is its owner's timer, which
// the copy could not cancel, so Fork refuses a table with one pending;
// into's own pending discoveries are dropped, their timers with the
// run that armed them.
func (t *Table) Fork(into *Table) (*Table, error) {
	if len(t.pending) > 0 {
		dst := -1
		for d := range t.pending {
			if dst < 0 || d < dst {
				dst = d
			}
		}
		return nil, fmt.Errorf("routetable: cannot fork while the discovery timeout for node %d is pending", dst)
	}
	if into == nil {
		into = &Table{pending: make(map[int]*Discovery), seen: make(map[uint64]time.Duration, len(t.seen))}
	}
	into.routes = append(into.routes[:0], t.routes...)
	into.repairs = append(into.repairs[:0], t.repairs...)
	clear(into.pending)
	clear(into.seen)
	maps.Copy(into.seen, t.seen)
	into.querySeq, into.seenSwept = t.querySeq, t.seenSwept
	into.queryBudget = nil
	if b := t.queryBudget; b != nil {
		cp := *b
		into.queryBudget = &cp
	}
	return into, nil
}

// Route returns the current route to dst.
func (t *Table) Route(dst int) Route { return t.routes[dst] }

// SetRoute overwrites the route to dst without recording a repair
// (initial installs and route loss).
func (t *Table) SetRoute(dst int, rt Route) { t.routes[dst] = rt }

// Install records rt as the route to dst: it completes any pending
// discovery for dst (cancelling its timer), and appends a Repair whose
// LostAt comes from that discovery — or now, for a route replaced
// while still usable. It reports false, changing nothing, when rt is
// already installed.
func (t *Table) Install(dst int, rt Route, now time.Duration) bool {
	if t.routes[dst] == rt {
		return false
	}
	t.routes[dst] = rt
	lostAt := now
	if q, ok := t.pending[dst]; ok {
		lostAt = q.LostAt
		if q.Cancel != nil {
			q.Cancel()
		}
		delete(t.pending, dst)
	}
	t.repairs = append(t.repairs, Repair{Peer: dst, LostAt: lostAt, RepairedAt: now, Route: rt})
	return true
}

// Repairs returns the completed repairs in order.
func (t *Table) Repairs() []Repair {
	return append([]Repair(nil), t.repairs...)
}

// RepairCount returns the number of completed repairs without copying
// the record (status snapshots poll this).
func (t *Table) RepairCount() int { return len(t.repairs) }

// Pending returns the in-flight discovery for dst, if any.
func (t *Table) Pending(dst int) (*Discovery, bool) {
	q, ok := t.pending[dst]
	return q, ok
}

// Begin starts a discovery for dst with the next query sequence. It
// returns nil while another discovery for dst is in flight (one per
// target). The caller fills in Cancel after arming its timer.
func (t *Table) Begin(dst int, now time.Duration) *Discovery {
	if _, ok := t.pending[dst]; ok {
		return nil
	}
	t.querySeq++
	q := &Discovery{Seq: t.querySeq, LostAt: now}
	t.pending[dst] = q
	return q
}

// Abandon removes the discovery for dst if it still carries seq,
// returning it; a discovery that was already answered (or replaced by
// a newer one) is left alone.
func (t *Table) Abandon(dst int, seq uint32) (*Discovery, bool) {
	q, ok := t.pending[dst]
	if !ok || q.Seq != seq {
		return nil, false
	}
	delete(t.pending, dst)
	return q, true
}

// Drop removes dst's route and cancels its discovery (peer removal).
func (t *Table) Drop(dst int) {
	t.routes[dst] = Route{}
	if q, ok := t.pending[dst]; ok {
		if q.Cancel != nil {
			q.Cancel()
		}
		delete(t.pending, dst)
	}
}

// ViaRelay returns, in ascending destination order, every destination
// whose installed route relays through via. Callers tear these down
// when via crashes or departs — a relay route is only as alive as the
// daemon behind it.
func (t *Table) ViaRelay(via int) []int {
	var out []int
	for dst, rt := range t.routes {
		if dst != via && rt.Kind == Relay && rt.Via == via {
			out = append(out, dst)
		}
	}
	return out
}

// Cancels returns the cancel functions of every in-flight discovery,
// for a stopping daemon to run outside its lock.
func (t *Table) Cancels() []func() bool {
	var out []func() bool
	for _, q := range t.pending {
		out = append(out, q.Cancel)
	}
	return out
}

// seenGCThreshold is the dedupe cache population past which entries
// older than the window are collected.
const seenGCThreshold = 4096

// SeenRecently reports whether the (origin, seq) query was already
// heard within window of now, recording it otherwise. Once the cache
// holds seenGCThreshold entries it is swept of expired ones, at most
// once per window: a storm of distinct queries keeps the cache full of
// live entries, and would otherwise pay an O(n) pass per query.
func (t *Table) SeenRecently(origin uint16, seq uint32, now, window time.Duration) bool {
	key := uint64(origin)<<32 | uint64(seq)
	if at, ok := t.seen[key]; ok && now-at < window {
		return true
	}
	t.seen[key] = now
	if len(t.seen) >= seenGCThreshold && now-t.seenSwept >= window {
		t.seenSwept = now
		for k, at := range t.seen {
			if now-at >= window {
				delete(t.seen, k)
			}
		}
	}
	return false
}

// SeenSize returns the dedupe cache population (testing hook).
func (t *Table) SeenSize() int { return len(t.seen) }
