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

// Gauge is a last-value-wins int64 — wall times, worker counts and
// other point-in-time measurements the sweep engine records.
type Gauge struct {
	v atomic.Int64
}

// Set stores the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Set is a registry of counters and gauges keyed by name. Counters and
// gauges live in separate namespaces: the same name may be used for
// one of each.
type Set struct {
	mu sync.Mutex
	m  map[string]*Counter
	g  map[string]*Gauge
}

// NewSet returns an empty registry.
func NewSet() *Set {
	return &Set{m: make(map[string]*Counter), g: make(map[string]*Gauge)}
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

// Gauge returns the gauge with the given name, creating it on first
// use. The returned pointer is stable: callers may cache it.
func (s *Set) Gauge(name string) *Gauge {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.g == nil {
		s.g = make(map[string]*Gauge)
	}
	g, ok := s.g[name]
	if !ok {
		g = &Gauge{}
		s.g[name] = g
	}
	return g
}

// GaugeSnapshot returns the current value of every gauge.
func (s *Set) GaugeSnapshot() map[string]int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int64, len(s.g))
	for name, g := range s.g {
		out[name] = g.Value()
	}
	return out
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
