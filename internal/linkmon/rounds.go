package linkmon

import (
	"sync"
	"time"

	"drsnet/internal/clock"
)

// Rounds drives one periodic protocol round. The body runs first
// inline (from Run) and then once per interval; rescheduling happens
// after the body returns, so under a deterministic scheduler every
// send a round makes is ordered before the timer that starts the next
// round — the property the byte-identical simulation goldens pin.
// Each round is rescheduled on the clock's handle-free AfterCall path,
// so a steady round allocates nothing.
//
// Rounds is safe for concurrent use; the body itself runs outside any
// Rounds lock.
type Rounds struct {
	clock clock.Clock

	// Set once by Run.
	interval time.Duration
	body     func()

	mu      sync.Mutex
	stopped bool
}

// NewRounds returns a stopped-free round driver on clock.
func NewRounds(clock clock.Clock) *Rounds {
	return &Rounds{clock: clock}
}

// Run executes body now and then every interval until Stop. Call it
// once, from the protocol's Start.
func (r *Rounds) Run(interval time.Duration, body func()) {
	r.interval, r.body = interval, body
	r.tick()
}

// runTick is the rounds timer's callback, arg being the *Rounds.
func runTick(r any) { r.(*Rounds).tick() }

func (r *Rounds) tick() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.mu.Unlock()

	r.body()

	r.mu.Lock()
	if !r.stopped {
		r.clock.AfterCall(r.interval, runTick, r)
	}
	r.mu.Unlock()
}

// Stagger spreads a round's n transmissions evenly across interval:
// send(0) runs inline, send(i) fires at i·(interval/n). Sends coming
// due after Stop are skipped. With n ≤ 1 everything runs inline.
func (r *Rounds) Stagger(interval time.Duration, n int, send func(i int)) {
	if n <= 0 {
		return
	}
	send(0)
	if n == 1 {
		return
	}
	step := interval / time.Duration(n)
	for i := 1; i < n; i++ {
		i := i
		r.clock.AfterFunc(time.Duration(i)*step, func() {
			r.mu.Lock()
			stopped := r.stopped
			r.mu.Unlock()
			if !stopped {
				send(i)
			}
		})
	}
}

// Stop halts the loop: no round body starts after Stop returns, except
// one that was already past its stopped check. The pending timer is
// not cancelled; when it fires it finds the driver stopped and does
// nothing.
func (r *Rounds) Stop() {
	r.mu.Lock()
	r.stopped = true
	r.mu.Unlock()
}

// Stopped reports whether Stop has been called.
func (r *Rounds) Stopped() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stopped
}
