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
//
// Rounds is safe for concurrent use; the body itself runs outside any
// Rounds lock.
type Rounds struct {
	clock clock.Clock

	// Set once by Run; next is the tick method, bound once so that
	// rescheduling a round costs the clock's timer and nothing else.
	interval time.Duration
	body     func()
	next     func()

	mu      sync.Mutex
	stopped bool
	cancel  func() bool
}

// NewRounds returns a stopped-free round driver on clock.
func NewRounds(clock clock.Clock) *Rounds {
	return &Rounds{clock: clock}
}

// Run executes body now and then every interval until Stop. Call it
// once, from the protocol's Start.
func (r *Rounds) Run(interval time.Duration, body func()) {
	r.interval, r.body, r.next = interval, body, r.tick
	r.tick()
}

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
		r.cancel = r.clock.AfterFunc(r.interval, r.next)
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

// Stop halts the loop: the pending timer is canceled and any timer
// that already fired becomes a no-op.
func (r *Rounds) Stop() {
	r.mu.Lock()
	r.stopped = true
	cancel := r.cancel
	r.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Stopped reports whether Stop has been called.
func (r *Rounds) Stopped() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stopped
}
