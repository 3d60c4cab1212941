package core

import (
	"encoding/json"
	"testing"
	"time"

	"drsnet/internal/clock"
	"drsnet/internal/transport"
)

// shapedOrNone is the route rule a warm start must keep, written out
// independently of the daemon's own check: no route at all, a Direct
// route via the peer itself, or a Relay route via a third node.
func shapedOrNone(rt Route, self, peer int) bool {
	switch rt.Kind {
	case RouteNone:
		return true
	case RouteDirect:
		return rt.Via == peer
	case RouteRelay:
		return rt.Via != peer && rt.Via != self
	}
	return false
}

// FuzzRestore warm-starts node 0 of a three-node, two-rail cluster
// from an arbitrary checkpoint image, with its peers running over
// transport.Mem on a manual clock. New either rejects the image or
// yields a daemon whose every route is None or well-shaped: right
// after the restore, after two seconds of data traffic, and in the
// checkpoint it takes before stopping. It must never panic.
func FuzzRestore(f *testing.F) {
	for _, seed := range []string{
		`{"node":0,"incarnation":1,"peers":[{"peer":1,"route":{"Kind":1,"Rail":1,"Via":1},"rails":[{"up":true},{"up":false}]}]}`,
		`{"node":0,"incarnation":4,"takenAt":3000000000,"peers":[
			{"peer":1,"lastHeard":2900000000,"incarnation":2,"route":{"Kind":2,"Rail":0,"Via":2},"rails":[{"up":false},{"up":false}]},
			{"peer":2,"static":true,"lastHeard":2950000000,"route":{"Kind":1,"Rail":0,"Via":2},
			 "rails":[{"up":true,"srtt":200000,"rttvar":50000,"samples":9},{"up":true}]}]}`,
		`{"node":0,"incarnation":1,"peers":[{"peer":1,"route":{"Kind":7,"Rail":0,"Via":1},"rails":[{},{}]}]}`,
		`{"node":0,"incarnation":1,"peers":[{"peer":1,"route":{"Kind":2,"Rail":0,"Via":0},"rails":[{},{}]}]}`,
		`{"node":0,"incarnation":4294967295}`,
		`{"node":1,"incarnation":1}`,
		`{"node":0,"incarnation":1,"peers":[{"peer":-1,"rails":[]}]}`,
		`{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var cp Checkpoint
		if err := json.Unmarshal(data, &cp); err != nil {
			return
		}
		const nodes, rails = 3, 2
		clk := clock.NewManual()
		mem := transport.NewMem(nodes, rails, clk, 100*time.Microsecond)
		for node := 1; node < nodes; node++ {
			peer, err := New(mem.Node(node), clk, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			if err := peer.Start(); err != nil {
				t.Fatal(err)
			}
			defer peer.Stop()
		}
		cfg := DefaultConfig()
		cfg.Incarnation = cp.Incarnation + 1
		cfg.Restore = &cp
		d, err := New(mem.Node(0), clk, cfg)
		if err != nil {
			return
		}
		check := func(when string) {
			for p := 1; p < nodes; p++ {
				if rt := d.RouteTo(p); !shapedOrNone(rt, 0, p) {
					t.Fatalf("%s: route to %d is %+v", when, p, rt)
				}
			}
		}
		check("restored")
		if err := d.Start(); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 20; step++ {
			for p := 1; p < nodes; p++ {
				_ = d.SendData(p, []byte("fuzz")) // no route is not a failure
			}
			clk.Advance(100 * time.Millisecond)
		}
		check("after 2 s")
		img := d.Checkpoint()
		d.Stop()
		for _, ps := range img.Peers {
			if !shapedOrNone(ps.Route, 0, ps.Peer) {
				t.Fatalf("checkpoint route to %d is %+v", ps.Peer, ps.Route)
			}
		}
	})
}
