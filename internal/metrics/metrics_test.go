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

// Forking into a set keeps the counters it shares with the source, so
// a handle resolved to one stays valid, drops the rest, and adds what
// it lacks, each with the source's value.
func TestForkInto(t *testing.T) {
	src := NewSet()
	src.Counter("a").Add(3)
	src.Counter("b").Add(5)
	into := NewSet()
	kept := into.Counter("a")
	into.Counter("stale").Inc()
	h := into.Handle("a")
	h.Inc()
	if got := src.Fork(into); got != into {
		t.Fatal("Fork into a set returned another set")
	}
	if into.Counter("a") != kept {
		t.Fatal("Fork replaced a counter the destination shared with the source")
	}
	h.Inc()
	if snap := into.Snapshot(); len(snap) != 2 || snap["a"] != 4 || snap["b"] != 5 {
		t.Fatalf("forked set %v, want a=4 (3 and one Inc), b=5", snap)
	}
	if snap := src.Fork(nil).Snapshot(); len(snap) != 2 || snap["a"] != 3 || snap["b"] != 5 {
		t.Fatalf("new fork %v, want a=3, b=5", snap)
	}
}
