// Package linkmon provides the link-monitoring building blocks every
// protocol in this repository schedules its periodic work with:
//
//   - Rounds drives a periodic protocol round (the DRS probe round,
//     the link-state hello round, the reactive advertisement loop) and
//     can stagger a round's transmissions across the interval.
//   - Table tracks per-(peer, rail) probe state for request/reply
//     monitoring: outstanding probe sequence or, at the answering end
//     of a shared exchange, the awaited request; consecutive misses,
//     up/down, and a Jacobson/Karels RTT estimate.
//   - Deadlines tracks per-(peer, rail) expiry times for
//     timeout-style monitoring: link-state adjacencies and reactive
//     routes are both "alive until silent too long".
//
// The package is deliberately free of wire formats and transports: it
// holds state and timing, the protocol decides what a probe is.
// Unless stated otherwise the types are not goroutine-safe; the
// owning protocol serializes access under its own lock.
package linkmon
