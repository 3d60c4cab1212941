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

// Fork returns a set holding a counter of the same name and value for
// each of s's: into, overwritten, or a new set when into is nil. A
// counter into already has under one of s's names is kept, so a handle
// resolved to it stays valid; into's other counters are dropped, and
// the handles resolved to them must be Reset. The counters into lacks
// are allocated in one block.
func (s *Set) Fork(into *Set) *Set {
	s.mu.Lock()
	defer s.mu.Unlock()
	if into == nil {
		into = &Set{m: make(map[string]*Counter, len(s.m))}
	}
	into.mu.Lock()
	defer into.mu.Unlock()
	missing := 0
	for name, c := range s.m {
		if fc, ok := into.m[name]; ok {
			fc.v.Store(c.Value())
		} else {
			missing++
		}
	}
	if len(into.m) > len(s.m)-missing {
		for name := range into.m {
			if _, ok := s.m[name]; !ok {
				delete(into.m, name)
			}
		}
	}
	if missing == 0 {
		return into
	}
	block := make([]Counter, missing)
	for name, c := range s.m {
		if _, ok := into.m[name]; !ok {
			block[0].v.Store(c.Value())
			into.m[name], block = &block[0], block[1:]
		}
	}
	return into
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

// Reset drops the resolved counter: the next Inc looks the name up
// again, for a handle whose set was forked into (see Set.Fork).
func (h *Handle) Reset() { h.c.Store(nil) }

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
