package main

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"drsnet/internal/clock"
	"drsnet/internal/core"
	"drsnet/internal/routing"
	"drsnet/internal/runtime"
	"drsnet/internal/scenario"
	"drsnet/internal/transport"
)

// gaugeCluster is the overload-enabled cluster document the gauge
// tests run — the same JSON a drsd node file would reference, so this
// pins the scenario→daemon wiring of the overload block too.
const gaugeCluster = `{
  "nodes": 3,
  "protocol": "drs",
  "duration": "30s",
  "probeInterval": "250ms",
  "missThreshold": 2,
  "adaptiveRTO": true,
  "overload": {},
  "traffic": [{"from": 0, "to": 1, "interval": "500ms"}]
}`

// buildGaugeInstance assembles a hermetic 3-daemon cluster (in-memory
// fabric, drained clock) from gaugeCluster and wraps node 0's router
// in an instance, the unit report() and metricsSnapshot() hang off.
func buildGaugeInstance(t *testing.T) (*instance, []routing.Router, *transport.Mem, *clock.Wall) {
	t.Helper()
	sc, err := scenario.Load(strings.NewReader(gaugeCluster))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sc.Spec()
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewManual()
	mem := transport.NewMem(spec.Nodes, 2, clk, 200*time.Microsecond)
	routers := make([]routing.Router, spec.Nodes)
	for n := range routers {
		r, err := runtime.BuildNode(spec, n, mem.Node(n), clk, 1, nil)
		if err != nil {
			t.Fatalf("node %d: %v", n, err)
		}
		if err := r.Start(); err != nil {
			t.Fatalf("node %d start: %v", n, err)
		}
		routers[n] = r
	}
	inst := &instance{
		cfg:    &Config{Node: 0},
		spec:   spec,
		inc:    1,
		router: routers[0],
	}
	return inst, routers, mem, clk
}

// TestOverloadGaugesGolden pins the control-plane gauge surface of an
// overload-enabled daemon: the typed `overload` block inside the JSON
// status report, byte for byte at converged steady state (buckets
// full, queues empty, not degraded), and the integer gauge samples the
// /metrics snapshot carries beside the counters.
func TestOverloadGaugesGolden(t *testing.T) {
	inst, routers, _, clk := buildGaugeInstance(t)
	defer func() {
		for _, r := range routers {
			r.Stop()
		}
	}()

	// Converge, then idle long enough for the budget buckets to refill
	// to their caps: every gauge is at its quiescent value.
	clk.Advance(5 * time.Second)

	buf, err := json.Marshal(inst.report())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Overload json.RawMessage `json:"overload"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	const golden = `{"degraded":false,"probeTokens":4,"queryTokens":2,"deferred":[0,0],"pinned":0}`
	if string(doc.Overload) != golden {
		t.Fatalf("status overload block drifted:\n got: %s\nwant: %s", doc.Overload, golden)
	}

	snap := inst.metricsSnapshot()
	for key, want := range map[string]int64{
		"overload.gauge_queue_depth":        0,
		"overload.gauge_probe_tokens_milli": 4000,
		"overload.gauge_query_tokens_milli": 2000,
		"overload.gauge_pinned":             0,
		"overload.gauge_degraded":           0,
	} {
		got, ok := snap[key]
		if !ok {
			t.Errorf("metrics snapshot missing gauge %s", key)
		} else if got != want {
			t.Errorf("gauge %s = %d, want %d", key, got, want)
		}
	}
}

// TestOverloadGaugesUnderStress: with every peer crashed, node 0's
// retransmit budget drains and the shed counter moves — the gauges
// must show the protection engaging, not stay frozen at quiescent.
func TestOverloadGaugesUnderStress(t *testing.T) {
	inst, routers, mem, clk := buildGaugeInstance(t)
	defer func() {
		for _, r := range routers {
			r.Stop()
		}
	}()

	clk.Advance(2 * time.Second)
	mem.FailNode(1)
	mem.FailNode(2)
	routers[1].Stop()
	routers[2].Stop()

	// The bucket refills between retransmit waves, so sample the gauge
	// across the episode instead of at one instant: it must dip below
	// its cap while the RTO storm is being bounded.
	minTokens := int64(4000)
	for i := 0; i < 100; i++ {
		clk.Advance(100 * time.Millisecond)
		if got := inst.metricsSnapshot()["overload.gauge_probe_tokens_milli"]; got < minTokens {
			minTokens = got
		}
	}
	snap := inst.metricsSnapshot()
	if snap["overload.probe_shed"] == 0 {
		t.Error("no probe retransmit was shed with every peer dead")
	}
	if minTokens >= 4000 {
		t.Errorf("probe token gauge never left its cap under sustained misses (min %d)", minTokens)
	}
}

// TestMetricsSnapshotDisabled: without an overload block the gauge
// keys must not appear — the /metrics surface is unchanged when the
// protection layer is off.
func TestMetricsSnapshotDisabled(t *testing.T) {
	clk := clock.NewManual()
	mem := transport.NewMem(3, 2, clk, 200*time.Microsecond)
	spec := runtime.ClusterSpec{
		Nodes:    3,
		Protocol: runtime.ProtoDRS,
		Duration: 10 * time.Second,
	}
	r, err := runtime.BuildNode(spec, 0, mem.Node(0), clk, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	clk.Advance(time.Second)
	inst := &instance{cfg: &Config{Node: 0}, spec: spec, inc: 1, router: r}
	for key := range inst.metricsSnapshot() {
		if strings.HasPrefix(key, "overload.gauge_") {
			t.Errorf("gauge %s present with overload disabled", key)
		}
	}
	if d, ok := r.(*core.Daemon); !ok {
		t.Fatalf("router is %T, want *core.Daemon", r)
	} else if d.Status().Overload != nil {
		t.Error("status carries an overload block with the layer disabled")
	}
}
