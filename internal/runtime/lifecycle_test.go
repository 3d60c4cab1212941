package runtime

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"drsnet/internal/chaos"
	"drsnet/internal/linkmon"
	"drsnet/internal/topology"
	"drsnet/internal/trace"
)

// crashEpisodeSpec is the e2e crash fixture: node 2's rail-0 NIC dies
// at 1 s, so every daemon's route to node 2 has moved off the cold
// default by the time node 1 crashes at 10 s. Whether node 1 restarts
// at 14 s warm or cold is the only difference between the two runs —
// and the thing the time-to-first-repaired-route comparison isolates.
func crashEpisodeSpec(warm bool) ClusterSpec {
	cl := topology.Dual(4)
	return ClusterSpec{
		Nodes:    4,
		Protocol: ProtoDRS,
		Seed:     11,
		Duration: 30 * time.Second,
		Flows:    []Flow{{From: 0, To: 1, Interval: 250 * time.Millisecond}},
		Faults:   []Fault{{At: time.Second, Comp: cl.NIC(2, 0)}},
		Crashes:  []chaos.CrashSpec{{Node: 1, At: 10 * time.Second, RestartAt: 14 * time.Second, Warm: warm}},
	}
}

// recoveryAfterRestart returns the delay from node's restart marker to
// its first repaired route of the new life, and whether one occurred.
func recoveryAfterRestart(log *trace.Log, node int) (time.Duration, bool) {
	var restartedAt time.Duration
	restarted := false
	for _, e := range log.Events() {
		if e.Node != node {
			continue
		}
		switch e.Kind {
		case trace.KindNodeRestarted:
			restartedAt, restarted = e.At, true
		case trace.KindRouteInstalled:
			if restarted {
				return e.At - restartedAt, true
			}
		}
	}
	return 0, false
}

// TestWarmBeatsColdRecovery is the ISSUE's headline e2e property: at
// equal seeds and an identical crash episode, a warm start — restoring
// the crash-time checkpoint — strictly reduces the time to the first
// repaired route compared to a cold start that must re-learn the
// failure from scratch.
func TestWarmBeatsColdRecovery(t *testing.T) {
	cold, err := Run(crashEpisodeSpec(false))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(crashEpisodeSpec(true))
	if err != nil {
		t.Fatal(err)
	}

	coldRec, ok := recoveryAfterRestart(cold.Trace, 1)
	if !ok {
		t.Fatal("cold run: no repaired route after the restart")
	}
	warmRec, ok := recoveryAfterRestart(warm.Trace, 1)
	if !ok {
		t.Fatal("warm run: no repaired route after the restart")
	}
	if warmRec >= coldRec {
		t.Fatalf("warm recovery %v not strictly faster than cold %v", warmRec, coldRec)
	}

	// The traces carry the start-kind markers and, warm only, the
	// restored route.
	wantDetail := func(log *trace.Log, kind trace.Kind, substr string) bool {
		for _, e := range log.Events() {
			if e.Kind == kind && strings.Contains(e.Detail, substr) {
				return true
			}
		}
		return false
	}
	if !wantDetail(cold.Trace, trace.KindNodeRestarted, "cold start") {
		t.Fatal("cold run missing its cold-start marker")
	}
	if !wantDetail(warm.Trace, trace.KindNodeRestarted, "warm start") {
		t.Fatal("warm run missing its warm-start marker")
	}
	if !wantDetail(warm.Trace, trace.KindRouteInstalled, "warm restore") {
		t.Fatal("warm run restored no route")
	}
	if wantDetail(cold.Trace, trace.KindRouteInstalled, "warm restore") {
		t.Fatal("cold run restored a checkpoint it should not have")
	}

	// Both lives deliver: the flow into node 1 resumes after the
	// restart in either mode.
	for name, res := range map[string]*Result{"cold": cold, "warm": warm} {
		resumed := false
		for _, at := range res.Flows[0].Deliveries {
			if at > 14*time.Second {
				resumed = true
			}
		}
		if !resumed {
			t.Fatalf("%s run: flow never resumed after the restart", name)
		}
		// The dead incarnation's repair records survive the restart:
		// node 1 repaired its route to 2 before the crash, and Finish
		// must still report it.
		banked := false
		for _, rep := range res.Repairs {
			if rep.Node == 1 && rep.RepairedAt < 10*time.Second {
				banked = true
			}
		}
		if !banked {
			t.Fatalf("%s run: pre-crash repairs of node 1 lost by the restart", name)
		}
	}
}

// TestAdaptiveRTONoFalseLinkDown is the ISSUE's safety criterion: on an
// impairment-free rail the adaptive deadline must never fire a false
// link-down — the Max clamp before the first sample and the 4·rttvar
// margin after it guarantee the probe always beats its own timer.
func TestAdaptiveRTONoFalseLinkDown(t *testing.T) {
	res, err := Run(ClusterSpec{
		Nodes:    4,
		Protocol: ProtoDRS,
		Seed:     5,
		Duration: 30 * time.Second,
		Tunables: Tunables{AdaptiveRTO: linkmon.DefaultRTO()},
		Flows:    []Flow{{From: 0, To: 3, Interval: 200 * time.Millisecond}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Trace.Events() {
		if e.Kind == trace.KindLinkDown {
			t.Fatalf("false link-down on a healthy rail: %+v", e)
		}
	}
	if len(res.Repairs) != 0 {
		t.Fatalf("repairs on a healthy cluster: %+v", res.Repairs)
	}
}

// TestCrashRunDeterministic: the crash–restart machinery sits inside
// the canonical scheduling order, so an identical spec yields a
// byte-identical run.
func TestCrashRunDeterministic(t *testing.T) {
	a, err := Run(crashEpisodeSpec(true))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(crashEpisodeSpec(true))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Trace.Events(), b.Trace.Events()) {
		t.Fatal("identical crash specs produced different traces")
	}
	if !reflect.DeepEqual(a.Flows, b.Flows) || !reflect.DeepEqual(a.Repairs, b.Repairs) {
		t.Fatal("identical crash specs produced different results")
	}
}

// TestCrashAdvancesIncarnation drives the cluster by hand and checks
// the bookkeeping: each restart bumps the node's incarnation, dead
// time blackholes the node, and the trace carries one marker pair.
func TestCrashAdvancesIncarnation(t *testing.T) {
	spec := crashEpisodeSpec(true)
	c, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	c.ScheduleFlows()
	c.ScheduleFaults()
	c.ScheduleCrashes()

	c.RunUntil(12 * time.Second) // mid-outage
	if c.Network().NodeUp(1) {
		t.Fatal("network still carries frames for the crashed node")
	}
	c.RunUntil(spec.Duration)
	c.StopRouters()
	if err := c.LifecycleErr(); err != nil {
		t.Fatal(err)
	}
	if !c.Network().NodeUp(1) {
		t.Fatal("node never restored on the network")
	}
	if c.incarnation[1] != 2 {
		t.Fatalf("incarnation after one restart = %d, want 2", c.incarnation[1])
	}
	if c.incarnation[0] != 1 {
		t.Fatalf("uncrashed node's incarnation = %d, want 1", c.incarnation[0])
	}
	crashed, restarted := 0, 0
	for _, e := range c.log.Events() {
		switch e.Kind {
		case trace.KindNodeCrashed:
			crashed++
		case trace.KindNodeRestarted:
			restarted++
		}
	}
	if crashed != 1 || restarted != 1 {
		t.Fatalf("markers = %d crashed, %d restarted, want 1 and 1", crashed, restarted)
	}
}

// TestCrashIgnoredWithoutLifecycle: on a cluster whose spec carries no
// crash script (and thus no lifecycle), Crash and Restart are no-ops —
// the gate that keeps the legacy goldens byte-identical.
func TestCrashIgnoredWithoutLifecycle(t *testing.T) {
	c, err := Build(ClusterSpec{Nodes: 3, Protocol: ProtoDRS, Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	c.Crash(1, true)
	c.Restart(1)
	if !c.Network().NodeUp(1) {
		t.Fatal("Crash acted on a lifecycle-free cluster")
	}
	if n := len(c.log.Events()); n != 0 {
		t.Fatalf("lifecycle events on a lifecycle-free cluster: %d", n)
	}
	c.StopRouters()
}
