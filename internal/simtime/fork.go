package simtime

import "fmt"

// An EventCopier supplies the copies of the pending events of a
// scheduler being forked (see ForkFrom). Each layer that schedules
// handle-free events knows the records they carry and copies its own.
type EventCopier interface {
	// CopyArg returns the arg the copy of a pooled event (AtCall)
	// runs its call with.
	CopyArg(arg any) (any, error)
	// CopyTimer returns the owner's copy of t, a timer the owner
	// embeds in a record and schedules with LaneTimer, bound with Bind
	// to the copied record.
	CopyTimer(t *Timer) (*Timer, error)
}

// Arg returns the value the timer's event runs with: the record bound
// with Bind or passed to AtCall, or the func() At runs.
func (t *Timer) Arg() any { return t.arg }

// ForkFrom makes s, a scheduler no event has been scheduled on, a
// copy of src: it takes src's clock and sequence counter, and every
// pending event of src becomes pending in s at the same (at, seq),
// lanes and runs included, so s runs the events src would run, in
// the same order. cp supplies each event's copy. An event whose arg is
// a func() — one scheduled with At, After or AfterFunc, or a closure
// passed to AtCall — captures state ForkFrom cannot follow, and is
// refused with an error that names its instant.
//
// ForkFrom only reads src, so any number of goroutines may fork one
// scheduler at once, provided nothing runs it meanwhile.
func (s *Scheduler) ForkFrom(src *Scheduler, cp EventCopier) error {
	if s.heap != nil || s.seq != 0 {
		return fmt.Errorf("simtime: fork into a scheduler already in use")
	}
	s.now, s.seq, s.executed = src.now, src.seq, src.executed
	for i := range src.heap {
		e := &src.heap[i]
		if e.run == 0 {
			if err := s.forkChain(e.head, cp); err != nil {
				return err
			}
			continue
		}
		r := src.runs[e.run]
		for _, t := range r.q[r.i:] {
			if err := s.forkChain(t, cp); err != nil {
				return err
			}
		}
	}
	return nil
}

// forkChain copies the heap-resident timer t and the lane chain
// queued behind it, and queues the copies in s.
func (s *Scheduler) forkChain(t *Timer, cp EventCopier) error {
	if t.cancelled {
		return nil // lanes hold no cancelled timers
	}
	var head, prev *Timer
	for ; t != nil; t = t.next {
		c, err := s.forkTimer(t, cp)
		if err != nil {
			return err
		}
		if prev == nil {
			head = c
		} else {
			prev.next = c
		}
		prev = c
	}
	s.push(head)
	return nil
}

// forkTimer returns the copy of the pending timer t, stamped with its
// (at, seq) and counted live in s.
func (s *Scheduler) forkTimer(t *Timer, cp EventCopier) (*Timer, error) {
	if _, ok := t.arg.(func()); ok {
		return nil, fmt.Errorf("simtime: cannot fork a closure event pending at %v", t.at)
	}
	var c *Timer
	if t.pooled {
		arg, err := cp.CopyArg(t.arg)
		if err != nil {
			return nil, err
		}
		c = s.pooledTimer()
		c.Bind(t.call, arg)
	} else {
		var err error
		if c, err = cp.CopyTimer(t); err != nil {
			return nil, err
		}
		if c.call == nil || c.sched != nil {
			return nil, fmt.Errorf("simtime: the copy of the timer pending at %v is unbound or already queued", t.at)
		}
	}
	c.at, c.seq, c.sched, c.cancelled = t.at, t.seq, s, false
	s.live++
	return c, nil
}

// ForkLane makes l, a lane of a forked scheduler, the copy of src: it
// is called with each timer t of the source's lanes and its copy cp,
// and l takes cp as its tail when t is src's tail still queued. A lane
// never matched stays empty, as src is once its tail has run.
func (l *Lane) ForkLane(src *Lane, t, cp *Timer) {
	if src.tail == t && src.queued() {
		l.tail, l.seq = cp, src.seq
	}
}
