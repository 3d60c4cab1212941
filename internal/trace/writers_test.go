package trace

import (
	"fmt"
	"testing"
)

// TestDefaultBound: NewLog(0) applies the documented 1<<16 default and
// keeps exactly that many events once the writer overflows.
func TestDefaultBound(t *testing.T) {
	l := NewLog(0)
	for i := 0; i < (1<<16)+10; i++ {
		l.Append(Event{Node: i})
	}
	if n := len(l.Events()); n > 1<<16 {
		t.Fatalf("retained %d events, default bound %d", n, 1<<16)
	}
	if l.dropped == 0 {
		t.Fatal("overflow recorded no drops")
	}
}

// TestDroppedAccumulatesAcrossHalvings: every overflow discards the
// oldest half, and Dropped sums across all of them.
func TestDroppedAccumulatesAcrossHalvings(t *testing.T) {
	l := NewLog(8)
	// 8 fills the log; each further append past a full log drops 4.
	for i := 0; i < 8+4+4+1; i++ {
		l.Append(Event{Node: i})
	}
	// Appends 9..12 trigger one halving (drop 4), 13..16 a second,
	// 17 a third.
	if d := l.dropped; d != 12 {
		t.Fatalf("Dropped = %d, want 12 (three halvings of 4)", d)
	}
	evs := l.Events()
	if evs[len(evs)-1].Node != 16 {
		t.Fatalf("newest event lost across halvings: %v", evs)
	}
	// Order is preserved within the retained window.
	for i := 1; i < len(evs); i++ {
		if evs[i].Node <= evs[i-1].Node {
			t.Fatalf("retained events out of order: %v", evs)
		}
	}
}

// TestKindNamesDistinct: every defined kind renders a distinct,
// non-fallback name — the trace dump depends on it.
func TestKindNamesDistinct(t *testing.T) {
	seen := map[string]Kind{}
	for k := KindProbeSent; k <= KindRouteUndamped; k++ {
		name := k.String()
		if name == fmt.Sprintf("Kind(%d)", int(k)) {
			t.Errorf("kind %d has no name", int(k))
		}
		if prev, dup := seen[name]; dup {
			t.Errorf("kinds %d and %d share the name %q", prev, k, name)
		}
		seen[name] = k
	}
}

// TestFilterEmptyLog: reads on a fresh writer are safe and empty.
func TestFilterEmptyLog(t *testing.T) {
	l := NewLog(4)
	if got := l.Filter(KindLinkDown); len(got) != 0 {
		t.Fatalf("Filter on empty log = %v", got)
	}
	if n := l.Count(KindLinkDown); n != 0 {
		t.Fatalf("Count on empty log = %d", n)
	}
	if _, ok := l.First(KindLinkDown, -1); ok {
		t.Fatal("First on empty log found an event")
	}
	if l.dropped != 0 {
		t.Fatal("empty log reports drops")
	}
}
