// Package clock defines the timing seam every protocol layer in this
// repository runs behind: a Clock hands out the current time and
// one-shot timers, nothing more. Two implementations exist — Wall,
// here, backed by the process's monotonic clock (with a drainable
// manual mode for tests), and simtime.Clock, on the simulator's side,
// backed by the deterministic scheduler. Protocol code written against
// Clock runs unmodified under the simulator and inside a live daemon.
//
// Both implementations execute timers in (deadline, scheduling-order)
// total order. That shared contract is what makes the clock-parity
// regression test hold: the same scenario driven through simtime.Clock
// and through a drained Wall produces the identical event sequence.
package clock

import "time"

// Clock abstracts time so protocol code runs identically under the
// simulator's virtual clock and the real one. Now is safe to call
// from any goroutine and takes no lock on Wall.
type Clock interface {
	// Now returns the time elapsed since an arbitrary epoch.
	Now() time.Duration
	// AfterFunc schedules fn after d; the returned function cancels
	// the timer and reports whether it was still pending.
	AfterFunc(d time.Duration, fn func()) (cancel func() bool)
	// AfterCall schedules call(arg) after d with no handle: the
	// timer cannot be cancelled, and scheduling it allocates nothing
	// in steady state. It shares AfterFunc's (deadline, scheduling
	// order) sequence. call should be a long-lived function value,
	// not a fresh closure per call.
	AfterCall(d time.Duration, call func(any), arg any)
}
