package trace

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestAppendAndRead(t *testing.T) {
	l := NewLog(10)
	l.Append(Event{At: time.Second, Node: 1, Kind: KindLinkDown, Peer: 2, Rail: 0})
	l.Append(Event{At: 2 * time.Second, Node: 1, Kind: KindRouteInstalled, Peer: 2, Rail: 1})
	got := l.Events()
	if len(got) != 2 || got[0].Kind != KindLinkDown || got[1].Kind != KindRouteInstalled {
		t.Fatalf("events = %v", got)
	}
	// Returned slice is a copy.
	got[0].Node = 99
	if l.Events()[0].Node != 1 {
		t.Fatal("Events exposed internal storage")
	}
}

func TestBoundDropsOldest(t *testing.T) {
	l := NewLog(4)
	for i := 0; i < 6; i++ {
		l.Append(Event{Node: i})
	}
	evs := l.Events()
	if len(evs) > 4 {
		t.Fatalf("retained %d events, bound 4", len(evs))
	}
	if l.dropped == 0 {
		t.Fatal("no drops recorded")
	}
	// The newest event is always retained.
	if evs[len(evs)-1].Node != 5 {
		t.Fatalf("newest lost: %v", evs)
	}
}

func TestFilterCountFirst(t *testing.T) {
	l := NewLog(0)
	l.Append(Event{At: 1, Node: 0, Kind: KindProbeSent})
	l.Append(Event{At: 2, Node: 1, Kind: KindLinkDown})
	l.Append(Event{At: 3, Node: 2, Kind: KindLinkDown})
	if n := l.Count(KindLinkDown); n != 2 {
		t.Fatalf("Count = %d", n)
	}
	if got := l.Filter(KindLinkDown); len(got) != 2 || got[0].Node != 1 {
		t.Fatalf("Filter = %v", got)
	}
	e, ok := l.First(KindLinkDown, -1)
	if !ok || e.Node != 1 {
		t.Fatalf("First any = %v %v", e, ok)
	}
	e, ok = l.First(KindLinkDown, 2)
	if !ok || e.At != 3 {
		t.Fatalf("First node=2 = %v %v", e, ok)
	}
	if _, ok := l.First(KindRouteLost, -1); ok {
		t.Fatal("First found a missing kind")
	}
}

func TestConcurrentAppend(t *testing.T) {
	l := NewLog(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Append(Event{Kind: KindProbeSent})
			}
		}()
	}
	wg.Wait()
	if n := l.Count(KindProbeSent); n != 8000 {
		t.Fatalf("count = %d", n)
	}
}

func TestStrings(t *testing.T) {
	e := Event{At: time.Second, Node: 3, Kind: KindQuerySent, Peer: 5, Rail: 1, Detail: "seq=9"}
	s := e.String()
	for _, want := range []string{"node=3", "query-sent", "peer=5", "rail=1", "seq=9"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
	if Kind(999).String() != "Kind(999)" {
		t.Fatal("unknown kind formatting")
	}
}
