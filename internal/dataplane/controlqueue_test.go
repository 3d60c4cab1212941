package dataplane

import (
	"testing"

	"drsnet/internal/metrics"
)

func meters() (*metrics.Set, *metrics.Counter, [NumClasses]*metrics.Counter) {
	mset := metrics.NewSet()
	var shed [NumClasses]*metrics.Counter
	for c := Class(0); c < NumClasses; c++ {
		shed[c] = mset.Counter("overload.shed_" + c.String())
	}
	return mset, mset.Counter("overload.deferred"), shed
}

func TestControlQueuePriorityOrder(t *testing.T) {
	_, def, shed := meters()
	cq := NewControlQueue(8, def, shed)
	cq.Push(ControlItem{ClassRepair, 3})
	cq.Push(ControlItem{ClassLiveness, 1})
	cq.Push(ControlItem{ClassRepair, 4})
	cq.Push(ControlItem{ClassLiveness, 2})
	want := []ControlItem{{ClassLiveness, 1}, {ClassLiveness, 2}, {ClassRepair, 3}, {ClassRepair, 4}}
	for i, w := range want {
		if it, ok := peek(cq); !ok || it != w {
			t.Fatalf("peek %d = %v %v, want %v", i, it, ok, w)
		}
		if it, ok := cq.Pop(); !ok || it != w {
			t.Fatalf("pop %d = %v %v, want %v", i, it, ok, w)
		}
	}
	if _, ok := cq.Pop(); ok {
		t.Fatal("pop from empty queue succeeded")
	}
	if def.Value() != 4 {
		t.Fatalf("deferred = %d, want 4", def.Value())
	}
}

func TestControlQueueShedsLeastImportantFirst(t *testing.T) {
	_, def, shed := meters()
	cq := NewControlQueue(3, def, shed)
	cq.Push(ControlItem{ClassRepair, 5})
	cq.Push(ControlItem{ClassRepair, 6})
	cq.Push(ControlItem{ClassLiveness, 1})
	// Full. A liveness push evicts the oldest repair intent.
	if !cq.Push(ControlItem{ClassLiveness, 2}) {
		t.Fatal("liveness push refused")
	}
	if got := shed[ClassRepair].Value(); got != 1 {
		t.Fatalf("repair sheds = %d, want 1", got)
	}
	if cq.Depth(ClassLiveness) != 2 || cq.Depth(ClassRepair) != 1 {
		t.Fatalf("depths = %d/%d", cq.Depth(ClassLiveness), cq.Depth(ClassRepair))
	}
	// A repair push evicts the older repair intent (its own class), and
	// the liveness push after it evicts the newer one.
	cq.Push(ControlItem{ClassRepair, 7})
	cq.Push(ControlItem{ClassLiveness, 3})
	if got := shed[ClassRepair].Value(); got != 3 {
		t.Fatalf("repair sheds = %d, want 3", got)
	}
	// Only liveness is left, so the next liveness push evicts the
	// oldest liveness intent.
	cq.Push(ControlItem{ClassLiveness, 4})
	if got := shed[ClassLiveness].Value(); got != 1 {
		t.Fatalf("liveness sheds = %d, want 1", got)
	}
	for _, want := range []ControlItem{{ClassLiveness, 2}, {ClassLiveness, 3}, {ClassLiveness, 4}} {
		if it, _ := cq.Pop(); it != want {
			t.Fatalf("pop = %v, want %v (oldest liveness should have been shed)", it, want)
		}
	}
}

func TestControlQueueRefusesOutrankedNewcomer(t *testing.T) {
	_, def, shed := meters()
	cq := NewControlQueue(2, def, shed)
	cq.Push(ControlItem{ClassLiveness, 1})
	cq.Push(ControlItem{ClassLiveness, 2})
	if cq.Push(ControlItem{ClassRepair, 3}) {
		t.Fatal("repair push admitted over two liveness intents at capacity")
	}
	if got := shed[ClassRepair].Value(); got != 1 {
		t.Fatalf("repair sheds = %d, want 1", got)
	}
	if cq.Len() != 2 {
		t.Fatalf("len = %d, want 2", cq.Len())
	}
}

func TestControlQueueContainsAndPopClass(t *testing.T) {
	_, def, shed := meters()
	cq := NewControlQueue(8, def, shed)
	it := ControlItem{ClassRepair, 5}
	if cq.Contains(it) {
		t.Fatal("empty queue contains item")
	}
	cq.Push(it)
	if !cq.Contains(it) {
		t.Fatal("queued item not found")
	}
	if cq.Contains(ControlItem{ClassRepair, 6}) || cq.Contains(ControlItem{ClassLiveness, 5}) {
		t.Fatal("Contains matched a different intent")
	}
	if got, ok := cq.PopClass(ClassRepair); !ok || got != it {
		t.Fatalf("PopClass = %v %v", got, ok)
	}
	if _, ok := cq.PopClass(ClassRepair); ok {
		t.Fatal("PopClass on empty class succeeded")
	}
}

// peek returns the most important queued intent without removing it.
func peek(cq *ControlQueue) (ControlItem, bool) {
	for c := range cq.q {
		if len(cq.q[c]) > 0 {
			return cq.q[c][0], true
		}
	}
	return ControlItem{}, false
}
