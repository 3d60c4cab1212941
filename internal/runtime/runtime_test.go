package runtime

import (
	"context"
	"testing"
	"time"

	"drsnet/internal/linkmon"
	"drsnet/internal/topology"
	"drsnet/internal/trace"
)

// testSpec is a small, fast DRS cluster with one flow and a NIC
// failure halfway through.
func testSpec() ClusterSpec {
	cl := topology.Dual(5)
	return ClusterSpec{
		Nodes:    5,
		Protocol: ProtoDRS,
		Seed:     1,
		Duration: 12 * time.Second,
		Tunables: Tunables{ProbeInterval: 500 * time.Millisecond, MissThreshold: 2},
		Flows:    []Flow{{From: 0, To: 1, Interval: 100 * time.Millisecond}},
		Faults:   []Fault{{At: 5 * time.Second, Comp: cl.NIC(1, 0)}},
	}
}

func TestRunDeliversAcrossFailure(t *testing.T) {
	run, err := Run(testSpec())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	flow := run.Flows[0]
	if flow.Sent == 0 || flow.Delivered == 0 {
		t.Fatalf("flow sent=%d delivered=%d, want both positive", flow.Sent, flow.Delivered)
	}
	// The DRS must keep delivering after the failure.
	recovered := false
	for _, at := range flow.Deliveries {
		if at >= 5*time.Second {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatalf("no delivery after the NIC failure")
	}
	if len(run.Repairs) == 0 {
		t.Fatalf("DRS recorded no route repairs across a NIC failure")
	}
	if run.Trace == nil || run.Trace.Count(trace.KindLinkDown) == 0 {
		t.Fatalf("trace recorded no link-down events")
	}
	if len(run.Utilization) != 2 || run.Utilization[0] <= 0 {
		t.Fatalf("utilization %v, want two positive rails", run.Utilization)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(testSpec())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	b, err := Run(testSpec())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if a.Flows[0].Sent != b.Flows[0].Sent || a.Flows[0].Delivered != b.Flows[0].Delivered {
		t.Fatalf("runs differ: %+v vs %+v", a.Flows[0], b.Flows[0])
	}
	if len(a.Repairs) != len(b.Repairs) {
		t.Fatalf("repair counts differ: %d vs %d", len(a.Repairs), len(b.Repairs))
	}
	for i := range a.Flows[0].Deliveries {
		if a.Flows[0].Deliveries[i] != b.Flows[0].Deliveries[i] {
			t.Fatalf("delivery %d differs: %v vs %v", i, a.Flows[0].Deliveries[i], b.Flows[0].Deliveries[i])
		}
	}
}

func TestFlowStartAndStopSemantics(t *testing.T) {
	spec := testSpec()
	spec.Faults = nil
	spec.Duration = 2 * time.Second
	// First message at t = 0, none at or after 1 s: 10 messages.
	spec.Flows = []Flow{{From: 0, To: 1, Interval: 100 * time.Millisecond,
		Start: StartImmediately, Stop: time.Second}}
	run, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if run.Flows[0].Sent != 10 {
		t.Fatalf("sent %d messages, want 10 (t = 0, 100ms, ..., 900ms)", run.Flows[0].Sent)
	}

	// Default start: one warm-up interval, so first message at 100 ms.
	spec.Flows = []Flow{{From: 0, To: 1, Interval: 100 * time.Millisecond, Stop: time.Second}}
	run, err = Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if run.Flows[0].Sent != 9 {
		t.Fatalf("sent %d messages, want 9 (t = 100ms, ..., 900ms)", run.Flows[0].Sent)
	}
}

func TestOnDeliverObservesEveryDelivery(t *testing.T) {
	spec := testSpec()
	var seen int
	spec.OnDeliver = func(at time.Duration, src, dst int, data []byte) {
		if src != 0 || dst != 1 {
			t.Errorf("unexpected delivery %d → %d", src, dst)
		}
		if string(data) != "flow" {
			t.Errorf("unexpected payload %q", data)
		}
		seen++
	}
	run, err := Run(spec)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if seen != run.Flows[0].Delivered {
		t.Fatalf("OnDeliver saw %d deliveries, result says %d", seen, run.Flows[0].Delivered)
	}
}

func TestSpecValidation(t *testing.T) {
	cases := map[string]func(*ClusterSpec){
		"too few nodes": func(s *ClusterSpec) { s.Nodes = 1 },
		"bad protocol":  func(s *ClusterSpec) { s.Protocol = "ospf" },
		"bad loss rate": func(s *ClusterSpec) { s.LossRate = 1.5 },
		"damp reuse above suppress": func(s *ClusterSpec) {
			s.Tunables.FlapDamping = linkmon.Damping{Suppress: 1, Reuse: 2}
		},
		"flow self-loop":  func(s *ClusterSpec) { s.Flows[0].To = s.Flows[0].From },
		"flow interval":   func(s *ClusterSpec) { s.Flows[0].Interval = 0 },
		"flow start":      func(s *ClusterSpec) { s.Flows[0].Start = -2 },
		"fault time":      func(s *ClusterSpec) { s.Faults[0].At = -time.Second },
		"fault component": func(s *ClusterSpec) { s.Faults[0].Comp = topology.Component(999) },
	}
	for name, mutate := range cases {
		spec := testSpec()
		mutate(&spec)
		if _, err := Run(spec); err == nil {
			t.Errorf("%s: Run accepted an invalid spec", name)
		}
		if err := spec.Normalize(); err == nil {
			t.Errorf("%s: Normalize accepted an invalid spec", name)
		}
	}
	if _, err := Run(ClusterSpec{Nodes: 3, Flows: []Flow{{From: 0, To: 1, Interval: time.Second}}}); err == nil {
		t.Errorf("Run accepted a spec without a duration")
	}
}

func TestStartTwiceErrors(t *testing.T) {
	c, err := Build(testSpec())
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := c.Start(); err == nil {
		t.Fatalf("second Start succeeded")
	}
	c.StopRouters()
}

// TestStubProtocolPluggable is the registry's reason to exist: a brand
// new protocol participates in the runtime without any change to the
// experiment harnesses or commands.
func TestStubProtocolPluggable(t *testing.T) {
	const name = "zstub"
	Register(name, stubBuilder)
	defer Deregister(name)

	spec := testSpec()
	spec.Protocol = name
	spec.Faults = nil
	run, err := Run(spec)
	if err != nil {
		t.Fatalf("Run with stub protocol: %v", err)
	}
	if run.Flows[0].Delivered == 0 {
		t.Fatalf("stub protocol delivered nothing on a healthy cluster")
	}
	if len(run.Repairs) != 0 {
		t.Fatalf("stub protocol reported %d DRS repairs", len(run.Repairs))
	}
}

func TestRunManyIdenticalForEveryWorkerCount(t *testing.T) {
	specs := make([]ClusterSpec, 6)
	for i := range specs {
		specs[i] = testSpec()
		specs[i].Seed = uint64(i + 1)
	}
	base, err := RunMany(context.Background(), specs, 1)
	if err != nil {
		t.Fatalf("RunMany(workers=1): %v", err)
	}
	for _, workers := range []int{0, 2, 5} {
		got, err := RunMany(context.Background(), specs, workers)
		if err != nil {
			t.Fatalf("RunMany(workers=%d): %v", workers, err)
		}
		for i := range specs {
			bf, gf := base[i].Flows[0], got[i].Flows[0]
			if bf.Sent != gf.Sent || bf.Delivered != gf.Delivered {
				t.Fatalf("workers=%d spec %d: flow %+v, want %+v", workers, i, gf, bf)
			}
			if len(base[i].Repairs) != len(got[i].Repairs) {
				t.Fatalf("workers=%d spec %d: %d repairs, want %d",
					workers, i, len(got[i].Repairs), len(base[i].Repairs))
			}
			for j := range bf.Deliveries {
				if bf.Deliveries[j] != gf.Deliveries[j] {
					t.Fatalf("workers=%d spec %d delivery %d: %v, want %v",
						workers, i, j, gf.Deliveries[j], bf.Deliveries[j])
				}
			}
		}
	}
}

func TestRunManyPropagatesError(t *testing.T) {
	bad := testSpec()
	bad.Protocol = "ospf"
	if _, err := RunMany(context.Background(), []ClusterSpec{testSpec(), bad}, 2); err == nil {
		t.Fatalf("RunMany swallowed a spec error")
	}
}
