package dataplane

import "drsnet/internal/metrics"

// Class ranks deferred control work. Lower values are more important:
// liveness re-checks outrank route repair — under a correlated failure
// storm the budget drains in exactly that order.
type Class int

const (
	// ClassLiveness is a probe retransmit whose budget token was not
	// available when the RTO fired.
	ClassLiveness Class = iota
	// ClassRepair is a deferred route-discovery broadcast.
	ClassRepair
	// NumClasses sizes per-class arrays.
	NumClasses
)

var classNames = [NumClasses]string{"liveness", "repair"}

// String implements fmt.Stringer.
func (c Class) String() string {
	if c >= 0 && c < NumClasses {
		return classNames[c]
	}
	return "unknown"
}

// ControlItem is one deferred control intent: what kind of work, and
// about which peer (-1 for broadcasts). Intents, not frames: a frame
// built at defer time would carry stale sequence numbers by the time
// the budget admits it, so the owner regenerates the message on drain.
type ControlItem struct {
	Class Class
	Peer  int
}

// ControlQueue is a bounded, prioritized queue of deferred control
// intents. When budget saturation defers work it parks here instead
// of being silently dropped, and under sustained overload the queue
// sheds load from the least important class first — with every shed
// and deferral counted, replacing the silent drop-oldest behavior.
//
// Like Plane, a ControlQueue is not goroutine-safe; the owning
// protocol serializes access under its own lock.
type ControlQueue struct {
	capacity int
	q        [NumClasses][]ControlItem
	// deferred counts accepted intents; shed counts evictions and
	// refusals per class. Nil counters disable counting.
	deferred *metrics.Counter
	shed     [NumClasses]*metrics.Counter
}

// NewControlQueue returns a queue holding at most capacity intents
// across all classes. deferred counts every accepted intent; shed[c]
// counts intents of class c lost to overflow.
func NewControlQueue(capacity int, deferred *metrics.Counter, shed [NumClasses]*metrics.Counter) *ControlQueue {
	if capacity < 1 {
		capacity = 1
	}
	return &ControlQueue{capacity: capacity, deferred: deferred, shed: shed}
}

// Len returns the total number of queued intents.
func (cq *ControlQueue) Len() int {
	n := 0
	for c := range cq.q {
		n += len(cq.q[c])
	}
	return n
}

// Depth returns the number of queued intents of one class.
func (cq *ControlQueue) Depth(c Class) int { return len(cq.q[c]) }

// Contains reports whether an identical intent is already queued —
// owners dedupe before pushing so one flapping peer cannot occupy the
// whole queue.
func (cq *ControlQueue) Contains(it ControlItem) bool {
	for _, q := range cq.q[it.Class] {
		if q == it {
			return true
		}
	}
	return false
}

// Push queues an intent, shedding to make room when full: the victim
// is the oldest intent of the least important class no more important
// than the newcomer. If everything queued outranks the newcomer, the
// newcomer itself is shed and Push reports false.
func (cq *ControlQueue) Push(it ControlItem) bool {
	if it.Class < 0 || it.Class >= NumClasses {
		return false
	}
	if cq.Len() >= cq.capacity {
		victim := -1
		for c := int(NumClasses) - 1; c >= int(it.Class); c-- {
			if len(cq.q[c]) > 0 {
				victim = c
				break
			}
		}
		if victim < 0 {
			cq.count(cq.shed[it.Class])
			return false
		}
		q := cq.q[victim]
		copy(q, q[1:])
		cq.q[victim] = q[:len(q)-1]
		cq.count(cq.shed[victim])
	}
	cq.q[it.Class] = append(cq.q[it.Class], it)
	cq.count(cq.deferred)
	return true
}

// Pop removes and returns the most important queued intent.
func (cq *ControlQueue) Pop() (ControlItem, bool) {
	for c := range cq.q {
		if q := cq.q[c]; len(q) > 0 {
			it := q[0]
			copy(q, q[1:])
			cq.q[c] = q[:len(q)-1]
			return it, true
		}
	}
	return ControlItem{}, false
}

// PeekClass returns the oldest intent of one class without removing
// it.
func (cq *ControlQueue) PeekClass(c Class) (ControlItem, bool) {
	if len(cq.q[c]) == 0 {
		return ControlItem{}, false
	}
	return cq.q[c][0], true
}

// PopClass removes and returns the oldest intent of one class.
func (cq *ControlQueue) PopClass(c Class) (ControlItem, bool) {
	q := cq.q[c]
	if len(q) == 0 {
		return ControlItem{}, false
	}
	it := q[0]
	copy(q, q[1:])
	cq.q[c] = q[:len(q)-1]
	return it, true
}

func (cq *ControlQueue) count(ctr *metrics.Counter) {
	if ctr != nil {
		ctr.Inc()
	}
}
