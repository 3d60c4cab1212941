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
	if len(snap) != 2 || snap["a"] != 1 || snap["b"] != 2 {
		t.Fatalf("snapshot = %v", snap)
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
	if got := s.Snapshot(); len(got) != 0 {
		t.Fatalf("unused handle registered %v", got)
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
