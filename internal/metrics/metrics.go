// Package metrics provides lightweight named counters shared by the
// protocol daemons and the simulation harness. Counters are safe for
// concurrent use so the same daemon code can run over the
// single-threaded simulator or over real UDP sockets.
package metrics

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically adjustable int64.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Set is a registry of counters keyed by name.
type Set struct {
	mu sync.Mutex
	m  map[string]*Counter
}

// NewSet returns an empty registry.
func NewSet() *Set {
	return &Set{m: make(map[string]*Counter)}
}

// Counter returns the counter with the given name, creating it on
// first use. The returned pointer is stable: callers may cache it.
func (s *Set) Counter(name string) *Counter {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.m[name]
	if !ok {
		c = &Counter{}
		s.m[name] = c
	}
	return c
}

// Fork returns a new set holding a counter of the same name and value
// for each of s's, allocated in one block.
func (s *Set) Fork() *Set {
	s.mu.Lock()
	defer s.mu.Unlock()
	f := &Set{m: make(map[string]*Counter, len(s.m))}
	block := make([]Counter, len(s.m))
	i := 0
	for name, c := range s.m {
		block[i].v.Store(c.Value())
		f.m[name] = &block[i]
		i++
	}
	return f
}

// Handle returns a lazily resolving reference to the named counter.
func (s *Set) Handle(name string) *Handle { return &Handle{set: s, name: name} }

// Handle is a counter reference for per-frame paths: the name is looked
// up (mutex + map probe) once, on the first Inc, and every later Inc is
// one atomic add. Resolving lazily rather than at construction keeps
// Snapshot listing exactly the counters that were ever touched — a
// handle that never fires registers nothing. Safe for concurrent use.
type Handle struct {
	set  *Set
	name string
	c    atomic.Pointer[Counter]
}

// Inc increments the underlying counter by one.
func (h *Handle) Inc() {
	c := h.c.Load()
	if c == nil {
		c = h.set.Counter(h.name)
		h.c.Store(c)
	}
	c.Inc()
}

// Snapshot returns the current value of every counter.
func (s *Set) Snapshot() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.m))
	for name, c := range s.m {
		out[name] = c.Value()
	}
	return out
}
