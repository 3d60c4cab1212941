// Package routing defines the abstractions shared by every routing
// implementation in this repository — the DRS (package core) and the
// baselines it is evaluated against — plus the baselines themselves:
//
//   - Static: the no-fault-tolerance strawman — all traffic on the
//     primary rail, no recovery whatsoever.
//   - Reactive: a RIP-like distance-vector protocol. Routes are
//     learned from periodic advertisements and expire after a timeout;
//     nothing probes for liveness, so a failure is only discovered
//     when a stale route times out. This is the "traditional routing
//     system" of the paper's comparison: "The general design goal is
//     based on reactively rerouting when a specified timeout period
//     has been reached."
//
// Routers are written against transport.Transport and clock.Clock
// only: the same code runs over the deterministic packet simulator
// (netsim.Transport, simtime.Clock) and over real UDP sockets
// (transport.UDP, clock.Wall). This package imports no simulator.
package routing

import (
	"errors"

	"drsnet/internal/metrics"
)

// Router is the data-plane contract every routing implementation
// satisfies. Applications hand a Router datagrams addressed by node
// index; the Router hides link failures as well as its protocol
// allows.
type Router interface {
	// Start begins protocol operation (timers, advertisements,
	// probes). It must be called exactly once.
	Start() error
	// Stop halts all protocol activity.
	Stop()
	// SendData routes one application datagram to dst. An error means
	// the router knows it has no usable route; nil means the datagram
	// was handed to the network (which may still lose it).
	SendData(dst int, data []byte) error
	// SetDeliverFunc installs the application receive callback. data
	// is a view of the transport's receive buffer (see
	// Transport.SetReceiver): valid until fn returns, copied if kept.
	SetDeliverFunc(fn func(src int, data []byte))
	// Metrics exposes the router's counters.
	Metrics() *metrics.Set
}

// ErrNoRoute is returned by SendData when the router has no usable
// route to the destination.
var ErrNoRoute = errors.New("routing: no route to destination")

// ErrStopped is returned when the router has been stopped.
var ErrStopped = errors.New("routing: router stopped")

// Counter names shared by implementations (not all routers use all).
const (
	CtrDataSent      = "data.sent"
	CtrDataDelivered = "data.delivered"
	CtrDataForwarded = "data.forwarded"
	CtrDataDropped   = "data.dropped"
	CtrDataNoRoute   = "data.noroute"
	CtrAdvertsSent   = "adverts.sent"
	CtrAdvertsRecv   = "adverts.recv"
	CtrProbesSent    = "probes.sent"
	CtrProbeReplies  = "probes.replies"
	CtrLinkDown      = "links.down"
	CtrLinkUp        = "links.up"
	CtrQueriesSent   = "queries.sent"
	CtrQueriesRecv   = "queries.recv"
	CtrOffersSent    = "offers.sent"
	CtrOffersRecv    = "offers.recv"
	CtrRepairs       = "routes.repaired"
	// CtrQueueOverflow counts datagrams evicted (oldest first) from a
	// full discovery queue.
	CtrQueueOverflow = "queue.overflow"
	// CtrLinkFlaps counts link down transitions per daemon — the
	// chattiness signal the flap-damping extension reacts to.
	CtrLinkFlaps = "link.flaps"
	// CtrRouteDamped counts recovered links held down (not re-trusted)
	// by route-flap damping; CtrDampedNs accumulates the total
	// nanoseconds links spent in the held-down state.
	CtrRouteDamped = "route.damped"
	CtrDampedNs    = "route.damped_ns"
	// CtrStaleControl counts control frames dropped for carrying an
	// older incarnation than the membership view — late frames from a
	// peer's previous life (crash–restart lifecycle).
	CtrStaleControl = "control.stale"
	// CtrRTOExpired counts adaptive probe deadlines that fired before
	// the reply arrived (each is a miss counted ahead of the round).
	CtrRTOExpired = "probe.rto_expired"
	// CtrProbeRetransmits counts RTO-driven replacement probes
	// actually sent — the traffic the overload probe budget bounds.
	CtrProbeRetransmits = "probe.retransmits"
	// Overload-protection counters (zero unless the layer is enabled).
	// CtrProbeShed counts probe retransmits refused by the budget;
	// CtrQueryShed counts discovery broadcasts refused (deferred to
	// the control queue); CtrCtrlDeferred counts intents parked on the
	// prioritized control queue, and the CtrCtrlShed* family counts
	// intents that queue evicted, by class.
	CtrProbeShed        = "overload.probe_shed"
	CtrQueryShed        = "overload.query_shed"
	CtrCtrlDeferred     = "overload.deferred"
	CtrCtrlShedLiveness = "overload.shed_liveness"
	CtrCtrlShedRepair   = "overload.shed_repair"
	// CtrDegradedEnter counts degraded-mode episodes; CtrDegradedNs
	// accumulates nanoseconds spent degraded; CtrRoutePinned counts
	// routes pinned (kept last-known-good) while degraded.
	CtrDegradedEnter = "overload.degraded"
	CtrDegradedNs    = "overload.degraded_ns"
	CtrRoutePinned   = "overload.route_pinned"
)
