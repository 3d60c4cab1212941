package failover_test

import (
	"testing"
	"time"

	"drsnet/internal/chaos"
	"drsnet/internal/invariant"
	"drsnet/internal/runtime"
	"drsnet/internal/topology"
)

// TestDynamicFlapDegradation is the Dai & Foerster adversarial regime:
// the receiver's preferred NIC flaps with a period comparable to the
// frame flight time (~11.7µs at 100 Mb/s), so the carrier oracle is
// truthful at send time yet stale by arrival — packets launched into
// an up-window die mid-flight when the link drops under them. No
// static variant can mask that (the failure is faster than any local
// reaction), so availability degrades; the invariant harness proves
// the degradation is honest loss, never a loop. The counts are golden:
// the flap schedule, traffic cadence and simulator are all seeded, so
// any drift here is a behaviour change in the family or the chaos
// layer.
func TestDynamicFlapDegradation(t *testing.T) {
	cl := topology.Dual(4)
	spec := func(proto string) runtime.ClusterSpec {
		return runtime.ClusterSpec{
			Nodes:    4,
			Protocol: proto,
			Seed:     1,
			Duration: 100 * time.Millisecond,
			Flows: []runtime.Flow{{
				From: 0, To: 3,
				Interval: 250 * time.Microsecond,
				Stop:     99 * time.Millisecond,
			}},
			Episodes: []chaos.Episode{{
				// Node 3's rail-1 NIC — the rotor's first choice for
				// destination 3 — flapping just faster than a frame's
				// flight, the classic dynamic-failure adversary.
				Comp:       cl.NIC(3, 1),
				Start:      time.Millisecond,
				Stop:       95 * time.Millisecond,
				FlapPeriod: 17 * time.Microsecond,
				FlapDuty:   0.5,
			}},
			// Loop-freedom stays mandatory; delivery cannot (that is
			// the point), so no RequireDelivery.
			Invariant: &invariant.Config{},
		}
	}

	// Golden per-variant outcomes under the identical seeded adversary.
	// The counts are the same for all three variants — deliberately so:
	// the flap strikes after the (correct) routing decision, so extra
	// forwarding machinery buys nothing. 111 of 395 packets lost is the
	// degradation no static scheme escapes.
	for _, tc := range []struct {
		proto       string
		delivered   int
		undelivered int
	}{
		{runtime.ProtoFailoverRotor, 284, 111},
		{runtime.ProtoFailoverArbor, 284, 111},
		{runtime.ProtoFailoverBounce, 284, 111},
	} {
		t.Run(tc.proto, func(t *testing.T) {
			run, err := runtime.Run(spec(tc.proto))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			rep := run.Invariant
			if err := rep.Err(); err != nil {
				t.Fatal(err)
			}
			if rep.Loops != 0 {
				t.Fatalf("dynamic failures induced a loop: %+v", rep)
			}
			if rep.Undelivered == 0 {
				t.Fatal("adversarial flapping caused no loss — the regime is not biting")
			}
			if rep.Delivered != tc.delivered || rep.Undelivered != tc.undelivered {
				t.Fatalf("golden drift: delivered %d undelivered %d, want %d/%d",
					rep.Delivered, rep.Undelivered, tc.delivered, tc.undelivered)
			}
		})
	}
}
