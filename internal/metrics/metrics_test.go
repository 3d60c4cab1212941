package metrics

import (
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	s := NewSet()
	c := s.Counter("probes")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("value = %d", c.Value())
	}
	if s.Counter("probes") != c {
		t.Fatal("counter pointer not stable")
	}
}

func TestSnapshotAndNames(t *testing.T) {
	s := NewSet()
	s.Counter("b").Add(2)
	s.Counter("a").Add(1)
	snap := s.Snapshot()
	if snap["a"] != 1 || snap["b"] != 2 {
		t.Fatalf("snapshot = %v", snap)
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

func TestGaugeBasics(t *testing.T) {
	s := NewSet()
	g := s.Gauge("sweep.figure2.wall_ns")
	g.Set(1234)
	if g.Value() != 1234 {
		t.Fatalf("value = %d", g.Value())
	}
	g.Set(42) // last value wins
	if g.Value() != 42 {
		t.Fatalf("value = %d", g.Value())
	}
	if s.Gauge("sweep.figure2.wall_ns") != g {
		t.Fatal("gauge pointer not stable")
	}
	snap := s.GaugeSnapshot()
	if snap["sweep.figure2.wall_ns"] != 42 {
		t.Fatalf("gauge snapshot = %v", snap)
	}
	// Counters and gauges are separate namespaces.
	s.Counter("sweep.figure2.wall_ns").Add(7)
	if g.Value() != 42 {
		t.Fatal("counter bled into gauge")
	}
}

func TestGaugeConcurrent(t *testing.T) {
	s := NewSet()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Gauge("y").Set(int64(w))
			}
		}()
	}
	wg.Wait()
	if got := s.Gauge("y").Value(); got < 0 || got > 7 {
		t.Fatalf("value = %d", got)
	}
}

func TestConcurrent(t *testing.T) {
	s := NewSet()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Counter("x").Inc()
			}
		}()
	}
	wg.Wait()
	if got := s.Counter("x").Value(); got != 8000 {
		t.Fatalf("value = %d", got)
	}
}

// A handle registers its name on the first Inc, not when it is made:
// daemons resolve handles at construction and a snapshot must still
// list only counters that fired.
func TestHandleRegistersOnFirstInc(t *testing.T) {
	s := NewSet()
	h := s.Handle("data.sent")
	if names := s.Names(); len(names) != 0 {
		t.Fatalf("unused handle registered %v", names)
	}
	h.Inc()
	h.Inc()
	if got := s.Snapshot(); len(got) != 1 || got["data.sent"] != 2 {
		t.Fatalf("snapshot = %v", got)
	}
	s.Counter("data.sent").Inc()
	h.Inc()
	if v := s.Counter("data.sent").Value(); v != 4 {
		t.Fatalf("handle and named lookup disagree: %d", v)
	}
}

func TestHandleConcurrentFirstUse(t *testing.T) {
	s := NewSet()
	h := s.Handle("probes.sent")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Inc()
			}
		}()
	}
	wg.Wait()
	if v := s.Counter("probes.sent").Value(); v != 8000 {
		t.Fatalf("value = %d, want 8000", v)
	}
}
