package routetable

import (
	"testing"
	"time"
)

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{None: "none", Direct: "direct", Relay: "relay"} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(k), got, want)
		}
	}
	if Kind(9).String() != "RouteKind(9)" {
		t.Errorf("invalid kind prints %q", Kind(9).String())
	}
}

func TestInstallRecordsRepair(t *testing.T) {
	tbl := New(4)
	if rt := tbl.Route(2); rt.Kind != None {
		t.Fatalf("initial route = %+v", rt)
	}
	rt := Route{Kind: Direct, Rail: 1, Via: 2}
	if !tbl.Install(2, rt, 5*time.Second) {
		t.Fatal("install reported no change")
	}
	if tbl.Install(2, rt, 6*time.Second) {
		t.Fatal("re-install of same route reported a change")
	}
	reps := tbl.Repairs()
	if len(reps) != 1 {
		t.Fatalf("repairs = %v", reps)
	}
	r := reps[0]
	if r.Peer != 2 || r.LostAt != 5*time.Second || r.RepairedAt != 5*time.Second || r.Route != rt {
		t.Fatalf("repair = %+v", r)
	}
	if r.Latency() != 0 {
		t.Fatalf("latency = %v", r.Latency())
	}
	// Repairs returns a copy.
	reps[0].Peer = 99
	if tbl.Repairs()[0].Peer != 2 {
		t.Fatal("Repairs aliases internal slice")
	}
}

func TestDiscoveryLifecycle(t *testing.T) {
	tbl := New(4)
	canceled := 0
	q := tbl.Begin(3, 2*time.Second)
	if q == nil || q.Seq != 1 {
		t.Fatalf("first discovery = %+v", q)
	}
	q.Cancel = func() bool { canceled++; return true }
	if tbl.Begin(3, 3*time.Second) != nil {
		t.Fatal("second discovery for same target allowed")
	}
	if other := tbl.Begin(1, 3*time.Second); other == nil || other.Seq != 2 {
		t.Fatalf("discovery for other target = %+v", other)
	}

	// Installing completes the discovery: timer canceled, LostAt kept.
	if !tbl.Install(3, Route{Kind: Relay, Rail: 0, Via: 1}, 4*time.Second) {
		t.Fatal("install failed")
	}
	if canceled != 1 {
		t.Fatalf("cancel calls = %d", canceled)
	}
	if _, ok := tbl.Pending(3); ok {
		t.Fatal("discovery survived install")
	}
	r := tbl.Repairs()[0]
	if r.LostAt != 2*time.Second || r.RepairedAt != 4*time.Second || r.Latency() != 2*time.Second {
		t.Fatalf("repair = %+v", r)
	}

	// Abandon only matches the live sequence.
	if _, ok := tbl.Abandon(1, 99); ok {
		t.Fatal("abandon with wrong seq succeeded")
	}
	if q, ok := tbl.Abandon(1, 2); !ok || q.Seq != 2 {
		t.Fatalf("abandon = %+v, %v", q, ok)
	}
	if _, ok := tbl.Pending(1); ok {
		t.Fatal("discovery survived abandon")
	}
}

func TestDropCancelsDiscovery(t *testing.T) {
	tbl := New(3)
	tbl.SetRoute(1, Route{Kind: Direct, Rail: 0, Via: 1})
	canceled := false
	q := tbl.Begin(1, time.Second)
	q.Cancel = func() bool { canceled = true; return true }
	tbl.Drop(1)
	if !canceled {
		t.Fatal("drop did not cancel the discovery")
	}
	if rt := tbl.Route(1); rt != (Route{}) {
		t.Fatalf("route after drop = %+v", rt)
	}
	if got := tbl.Cancels(); len(got) != 0 {
		t.Fatalf("cancels after drop = %d", len(got))
	}
}

func TestSeenRecently(t *testing.T) {
	tbl := New(2)
	window := 10 * time.Second
	if tbl.SeenRecently(1, 7, time.Second, window) {
		t.Fatal("fresh query reported seen")
	}
	if !tbl.SeenRecently(1, 7, 2*time.Second, window) {
		t.Fatal("duplicate within window not deduped")
	}
	// Outside the window the same key is fresh again.
	if tbl.SeenRecently(1, 7, 13*time.Second, window) {
		t.Fatal("expired entry still deduping")
	}
	// Distinct (origin, seq) pairs never collide.
	if tbl.SeenRecently(2, 7, time.Second, window) || tbl.SeenRecently(1, 8, time.Second, window) {
		t.Fatal("distinct queries collided")
	}
}

func TestSeenGC(t *testing.T) {
	tbl := New(2)
	window := 10 * time.Second
	// Fill past the GC threshold with entries that are already stale by
	// the time the threshold trips.
	for i := 0; i < seenGCThreshold; i++ {
		tbl.SeenRecently(1, uint32(i), time.Duration(i)*time.Second, window)
	}
	if tbl.SeenSize() >= seenGCThreshold {
		t.Fatalf("cache not collected: %d entries", tbl.SeenSize())
	}

	// A storm of distinct queries at one instant is all live: nothing
	// may be collected, every one still dedupes, and the first query a
	// window later finds the whole storm expired.
	tbl = New(2)
	const storm, at = 10000, 5 * time.Second
	for i := 0; i < storm; i++ {
		if tbl.SeenRecently(1, uint32(i), at, window) {
			t.Fatalf("fresh query %d reported seen", i)
		}
	}
	for i := 0; i < storm; i++ {
		if !tbl.SeenRecently(1, uint32(i), at, window) {
			t.Fatalf("live query %d not deduped", i)
		}
	}
	if tbl.SeenSize() != storm {
		t.Fatalf("cache holds %d entries after the storm, want %d", tbl.SeenSize(), storm)
	}
	tbl.SeenRecently(2, 0, at+window, window)
	if tbl.SeenSize() != 1 {
		t.Fatalf("cache holds %d entries a window after the storm, want 1", tbl.SeenSize())
	}
}

func TestViaRelay(t *testing.T) {
	tbl := New(6)
	tbl.SetRoute(1, Route{Kind: Direct, Rail: 0, Via: 1})
	tbl.SetRoute(2, Route{Kind: Relay, Rail: 1, Via: 4})
	tbl.SetRoute(3, Route{Kind: Relay, Rail: 0, Via: 4})
	tbl.SetRoute(5, Route{Kind: Relay, Rail: 0, Via: 2})
	got := tbl.ViaRelay(4)
	if len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("ViaRelay(4) = %v, want [2 3]", got)
	}
	if got := tbl.ViaRelay(1); got != nil {
		// Node 1 is a direct next hop, not a relay.
		t.Fatalf("ViaRelay(1) = %v, want none", got)
	}
	// A relay route TO the relay itself is excluded: tearing it down is
	// the caller's direct-loss path, not relay purging.
	tbl.SetRoute(4, Route{Kind: Relay, Rail: 0, Via: 4})
	got = tbl.ViaRelay(4)
	if len(got) != 2 {
		t.Fatalf("ViaRelay(4) with self-route = %v, want [2 3]", got)
	}
}
