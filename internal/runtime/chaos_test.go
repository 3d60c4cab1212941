package runtime

import (
	"strings"
	"testing"
	"time"

	"drsnet/internal/chaos"
	"drsnet/internal/linkmon"
	"drsnet/internal/netsim"
	"drsnet/internal/topology"
	"drsnet/internal/trace"
)

// flappingRailSpec is the e2e gray-failure fixture: node 1's rail-1
// NIC dies cleanly at 1 s, then its rail-0 NIC — the only path left —
// flaps with an 8 s period from 10 s on. Every transition node 0 takes
// for peer 1 after that is churn a damping policy could suppress.
func flappingRailSpec(damp linkmon.Damping) ClusterSpec {
	cl := topology.Dual(3)
	return ClusterSpec{
		Nodes:    3,
		Protocol: ProtoDRS,
		Seed:     7,
		Duration: 80 * time.Second,
		Tunables: Tunables{FlapDamping: damp},
		Flows:    []Flow{{From: 0, To: 1, Interval: 500 * time.Millisecond}},
		Faults:   []Fault{{At: time.Second, Comp: cl.NIC(1, 1)}},
		Episodes: []chaos.Episode{{
			Comp:       cl.NIC(1, 0),
			Start:      10 * time.Second,
			FlapPeriod: 8 * time.Second,
			FlapDuty:   0.5,
		}},
	}
}

// testDamping is aggressive enough to suppress on the second flap of
// the 8 s cycle: the half-life is long relative to the flap period, so
// the penalty barely decays between the down-transition that charges
// it and the recovery that consults it.
func testDamping() linkmon.Damping {
	return linkmon.Damping{Penalty: 1, Suppress: 1.2, Reuse: 0.4, HalfLife: 30 * time.Second, Max: 6}
}

// routeChurn counts node 0's route-installed/route-lost transitions
// for peer 1.
func routeChurn(log *trace.Log) int {
	n := 0
	for _, e := range log.Events() {
		if e.Node != 0 || e.Peer != 1 {
			continue
		}
		if e.Kind == trace.KindRouteInstalled || e.Kind == trace.KindRouteLost {
			n++
		}
	}
	return n
}

// TestDampingReducesChurnEndToEnd drives the full stack — scenario
// spec, chaos scheduler, DRS daemons — and checks damping's headline
// property: at identical seeds and identical flap schedules, damping
// yields strictly fewer route transitions than the undamped run.
func TestDampingReducesChurnEndToEnd(t *testing.T) {
	undamped, err := Run(flappingRailSpec(linkmon.Damping{}))
	if err != nil {
		t.Fatal(err)
	}
	damped, err := Run(flappingRailSpec(testDamping()))
	if err != nil {
		t.Fatal(err)
	}
	u, d := routeChurn(undamped.Trace), routeChurn(damped.Trace)
	if u < 6 {
		t.Fatalf("undamped churn = %d; flap schedule too gentle to be probative", u)
	}
	if d >= u {
		t.Fatalf("route churn with damping = %d, without = %d; want strictly fewer", d, u)
	}
	// Damping must have actually engaged, not merely raced the flaps.
	if n := len(damped.Trace.Filter(trace.KindRouteDamped)); n == 0 {
		t.Fatal("no route-damped events in the damped run")
	}
	if n := len(undamped.Trace.Filter(trace.KindRouteDamped)); n != 0 {
		t.Fatalf("%d route-damped events with damping disabled", n)
	}
}

// TestImpairedRunIsDeterministic re-runs an impaired, damped spec and
// requires identical outcomes — the determinism contract extends to
// the chaos layer.
func TestImpairedRunIsDeterministic(t *testing.T) {
	spec := flappingRailSpec(testDamping())
	spec.Episodes = append(spec.Episodes, chaos.Episode{
		Comp:   topology.Dual(3).Backplane(1),
		Start:  2 * time.Second,
		Impair: netsim.Impairment{Loss: 0.05, Jitter: 200 * time.Microsecond},
	})
	a, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Flows[0].Delivered != b.Flows[0].Delivered || a.Flows[0].Sent != b.Flows[0].Sent {
		t.Fatalf("delivery diverged: %+v vs %+v", a.Flows[0], b.Flows[0])
	}
	ea, eb := a.Trace.Events(), b.Trace.Events()
	if len(ea) != len(eb) {
		t.Fatalf("trace lengths diverged: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("trace[%d] diverged: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}

// TestRunRejectsBadImpairment checks the spec-level gate: Build must
// refuse an impairment schedule that fails chaos validation.
func TestRunRejectsBadImpairment(t *testing.T) {
	spec := flappingRailSpec(linkmon.Damping{})
	spec.Episodes[0].Impair.Loss = 2
	if _, err := Build(spec); err == nil || !strings.Contains(err.Error(), "runtime: chaos: impairments[0] (nic(1,0)): netsim: impairment loss 2 outside [0,1]") {
		t.Fatalf("Build of loss probability 2: error %v", err)
	}
}
