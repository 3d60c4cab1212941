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
	cq.Push(ControlItem{ClassDiscovery, -1})
	cq.Push(ControlItem{ClassRepair, 3})
	cq.Push(ControlItem{ClassLiveness, 1})
	cq.Push(ControlItem{ClassRepair, 4})
	want := []ControlItem{{ClassLiveness, 1}, {ClassRepair, 3}, {ClassRepair, 4}, {ClassDiscovery, -1}}
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
	cq.Push(ControlItem{ClassDiscovery, -1})
	cq.Push(ControlItem{ClassDiscovery, -2})
	cq.Push(ControlItem{ClassRepair, 7})
	// Full. A liveness push evicts the oldest discovery intent.
	if !cq.Push(ControlItem{ClassLiveness, 1}) {
		t.Fatal("liveness push refused")
	}
	if got := shed[ClassDiscovery].Value(); got != 1 {
		t.Fatalf("discovery sheds = %d, want 1", got)
	}
	if cq.Depth(ClassDiscovery) != 1 || cq.Depth(ClassRepair) != 1 || cq.Depth(ClassLiveness) != 1 {
		t.Fatalf("depths = %d/%d/%d", cq.Depth(ClassLiveness), cq.Depth(ClassRepair), cq.Depth(ClassDiscovery))
	}
	// Another repair push evicts the remaining discovery intent; the
	// one after that evicts the older repair intent (its own class).
	cq.Push(ControlItem{ClassRepair, 8})
	cq.Push(ControlItem{ClassRepair, 9})
	if got := shed[ClassDiscovery].Value(); got != 2 {
		t.Fatalf("discovery sheds = %d, want 2", got)
	}
	if got := shed[ClassRepair].Value(); got != 1 {
		t.Fatalf("repair sheds = %d, want 1", got)
	}
	if it, _ := cq.Pop(); it != (ControlItem{ClassLiveness, 1}) {
		t.Fatalf("head = %v", it)
	}
	if it, _ := cq.Pop(); it != (ControlItem{ClassRepair, 8}) {
		t.Fatalf("second = %v (oldest repair should have been shed)", it)
	}
}

func TestControlQueueRefusesOutrankedNewcomer(t *testing.T) {
	_, def, shed := meters()
	cq := NewControlQueue(2, def, shed)
	cq.Push(ControlItem{ClassLiveness, 1})
	cq.Push(ControlItem{ClassRepair, 2})
	if cq.Push(ControlItem{ClassDiscovery, -1}) {
		t.Fatal("discovery push admitted over liveness+repair at capacity")
	}
	if got := shed[ClassDiscovery].Value(); got != 1 {
		t.Fatalf("discovery sheds = %d, want 1", got)
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
