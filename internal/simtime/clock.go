package simtime

import "time"

// Clock adapts a Scheduler to the clock.Clock interface (which it
// satisfies structurally; runtime holds the assertion). Time only
// advances when the scheduler executes events, so every run is
// deterministic.
type Clock struct {
	Sched *Scheduler
}

// Now returns the scheduler's current time.
func (c Clock) Now() time.Duration { return c.Sched.Now().Duration() }

// AfterFunc schedules fn after d; the returned function cancels the
// timer and reports whether it was still pending.
func (c Clock) AfterFunc(d time.Duration, fn func()) (cancel func() bool) {
	return c.Sched.AfterFunc(d, fn)
}

// AfterCall schedules call(arg) after d on the scheduler's pooled,
// handle-free path (Scheduler.AtCall).
func (c Clock) AfterCall(d time.Duration, call func(any), arg any) {
	c.Sched.AtCall(c.Sched.Now().Add(d), call, arg)
}
