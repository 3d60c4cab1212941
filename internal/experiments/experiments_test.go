package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

	"drsnet/internal/costmodel"
	"drsnet/internal/failure"
	"drsnet/internal/montecarlo"
	"drsnet/internal/runtime"
)

func TestFigure1(t *testing.T) {
	res, err := Figure1Workers(costmodel.Defaults(), costmodel.FigureBudgets, 10, 100, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Nodes) != 10 || res.Nodes[0] != 10 || res.Nodes[9] != 100 {
		t.Fatalf("nodes = %v", res.Nodes)
	}
	if len(res.Times) != len(costmodel.FigureBudgets) {
		t.Fatalf("%d curves", len(res.Times))
	}
	// The headline cell: 90 nodes at 10% budget < 1 s.
	var i90, b10 = -1, -1
	for i, n := range res.Nodes {
		if n == 90 {
			i90 = i
		}
	}
	for b, bud := range res.Budgets {
		if bud == 0.10 {
			b10 = b
		}
	}
	if i90 < 0 || b10 < 0 {
		t.Fatal("grid misses the headline cell")
	}
	if rt := res.Times[b10][i90]; rt >= 1 {
		t.Fatalf("90 nodes at 10%% = %v s, paper says < 1 s", rt)
	}
	var sb strings.Builder
	if err := res.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 1") || !strings.Contains(sb.String(), "10%") {
		t.Fatalf("table output: %q", sb.String())
	}
}

func TestFigure1Errors(t *testing.T) {
	if _, err := Figure1Workers(costmodel.Defaults(), nil, 2, 10, 1, 0); err == nil {
		t.Error("no budgets accepted")
	}
	if _, err := Figure1Workers(costmodel.Defaults(), []float64{0.1}, 2, 10, 0, 0); err == nil {
		t.Error("zero step accepted")
	}
	if _, err := Figure1Workers(costmodel.Defaults(), []float64{2}, 2, 10, 1, 0); err == nil {
		t.Error("budget > 1 accepted")
	}
}

func TestFigure2(t *testing.T) {
	res, err := Figure2Workers([]int{2, 3, 4}, 63, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Check the paper's anchor point P(18,2) ≈ 0.99005.
	p := res.P[0][18-3]
	if math.Abs(p-0.990042674) > 1e-6 {
		t.Fatalf("P(18,2) = %v", p)
	}
	var sb strings.Builder
	if err := res.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 2") {
		t.Fatal("missing header")
	}
	if _, err := Figure2Workers(nil, 63, 0); err == nil {
		t.Error("empty failure list accepted")
	}
	if _, err := Figure2Workers([]int{70}, 63, 0); err == nil {
		t.Error("f >= nMax accepted")
	}
}

func TestThresholdsMatchPaper(t *testing.T) {
	rows, err := ThresholdsWorkers([]int{2, 3, 4}, 0.99, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]int{2: 18, 3: 32, 4: 45}
	for _, r := range rows {
		if !r.Found {
			t.Fatalf("f=%d: threshold not found", r.F)
		}
		if r.N != want[r.F] {
			t.Fatalf("f=%d: N=%d, paper says %d", r.F, r.N, want[r.F])
		}
		if r.P <= 0.99 {
			t.Fatalf("f=%d: P=%v not above target", r.F, r.P)
		}
	}
	var sb strings.Builder
	if err := WriteThresholds(&sb, rows, 0.99); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "18") || !strings.Contains(sb.String(), "45") {
		t.Fatalf("threshold table: %q", sb.String())
	}
}

func TestThresholdsNotFoundRendered(t *testing.T) {
	rows, err := ThresholdsWorkers([]int{9}, 0.99, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Found {
		t.Fatal("threshold found below N=10 for f=9?")
	}
	var sb strings.Builder
	if err := WriteThresholds(&sb, rows, 0.99); err != nil {
		t.Fatal(err)
	}
}

func TestFigure3Small(t *testing.T) {
	cfg := montecarlo.ConvergenceConfig{
		Failures:   []int{2, 3},
		NMax:       16,
		Iterations: []int64{10, 10000},
		Seed:       2,
	}
	res, err := Figure3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Series {
		if s.MAD[1] >= s.MAD[0] {
			t.Fatalf("f=%d: no convergence: %v", s.F, s.MAD)
		}
	}
	var sb strings.Builder
	if err := res.WriteTable(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Figure 3") {
		t.Fatal("missing header")
	}
}

func TestFigure3DefaultsShape(t *testing.T) {
	cfg := Figure3Defaults()
	if len(cfg.Failures) != 9 || cfg.Failures[0] != 2 || cfg.Failures[8] != 10 {
		t.Fatalf("failures = %v (paper: 2..10)", cfg.Failures)
	}
	if cfg.NMax != 63 {
		t.Fatalf("NMax = %d (paper: f < N < 64)", cfg.NMax)
	}
}

func TestFleet(t *testing.T) {
	log, sum, err := Fleet(failure.DefaultFleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total == 0 {
		t.Fatal("empty fleet log")
	}
	var sb strings.Builder
	if err := WriteFleet(&sb, log); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "network-related fraction") || !strings.Contains(out, "[network]") {
		t.Fatalf("fleet output: %q", out)
	}
}

func TestRecoveryDRSMasksNICFailure(t *testing.T) {
	cfg := DefaultRecoveryConfig(runtime.ProtoDRS, ScenarioNIC)
	res, err := Recovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recovered {
		t.Fatal("DRS did not recover from a single NIC failure")
	}
	// Detection + repair within the proactive budget.
	budget := time.Duration(cfg.MissThreshold+1) * cfg.ProbeInterval
	if res.RepairLatency > budget {
		t.Fatalf("repair latency %v exceeds %v", res.RepairLatency, budget)
	}
	if res.DetectionLatency <= 0 {
		t.Fatal("no detection recorded")
	}
	if !res.SurvivedByTCP {
		t.Fatal("outage killed the TCP model connection")
	}
	// The outage must be within a few probe intervals.
	if res.Outage > budget+cfg.TrafficInterval {
		t.Fatalf("application outage %v too long", res.Outage)
	}
}

func TestRecoveryComparisonOrdering(t *testing.T) {
	// The paper's qualitative claim: proactive beats reactive beats
	// static on identical failure traces.
	base := DefaultRecoveryConfig(runtime.ProtoDRS, ScenarioNIC)
	results, err := CompareRecovery(base)
	if err != nil {
		t.Fatal(err)
	}
	byProto := map[string]*RecoveryResult{}
	for _, r := range results {
		byProto[r.Config.Protocol] = r
	}
	drs, reactive, static := byProto[runtime.ProtoDRS], byProto[runtime.ProtoReactive], byProto[runtime.ProtoStatic]
	if drs == nil || reactive == nil || static == nil {
		t.Fatal("missing protocol result")
	}
	if !drs.Recovered || !reactive.Recovered {
		t.Fatalf("recovery flags: drs=%v reactive=%v", drs.Recovered, reactive.Recovered)
	}
	if static.Recovered {
		t.Fatal("static routing recovered from a NIC failure?!")
	}
	if !(drs.Outage < reactive.Outage) {
		t.Fatalf("DRS outage %v not better than reactive %v", drs.Outage, reactive.Outage)
	}
	if !(drs.Lost <= reactive.Lost && reactive.Lost < static.Lost) {
		t.Fatalf("loss ordering violated: drs=%d reactive=%d static=%d",
			drs.Lost, reactive.Lost, static.Lost)
	}
	var sb strings.Builder
	if err := WriteRecovery(&sb, results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "drs") || !strings.Contains(sb.String(), "static") {
		t.Fatalf("recovery table: %q", sb.String())
	}
}

func TestRecoveryCrossRailNeedsRelay(t *testing.T) {
	cfg := DefaultRecoveryConfig(runtime.ProtoDRS, ScenarioCrossRail)
	res, err := Recovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recovered {
		t.Fatal("DRS relay discovery did not reconnect the cross-rail failure")
	}
}

func TestRecoveryBackplane(t *testing.T) {
	cfg := DefaultRecoveryConfig(runtime.ProtoDRS, ScenarioBackplane)
	res, err := Recovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Recovered {
		t.Fatal("DRS did not survive a back plane failure")
	}
}

func TestRecoveryValidation(t *testing.T) {
	good := DefaultRecoveryConfig(runtime.ProtoDRS, ScenarioNIC)
	for name, mutate := range map[string]func(*RecoveryConfig){
		"too few nodes": func(c *RecoveryConfig) { c.Nodes = 2 },
		"bad protocol":  func(c *RecoveryConfig) { c.Protocol = "ospf" },
		"bad scenario":  func(c *RecoveryConfig) { c.Scenario = "meteor" },
		"bad timing":    func(c *RecoveryConfig) { c.Duration = c.FailAt },
	} {
		cfg := good
		mutate(&cfg)
		if _, err := Recovery(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestProbeOverheadMatchesCostModel(t *testing.T) {
	measured, predicted, err := ProbeOverhead(10, time.Second, 10*time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	if predicted <= 0 || measured <= 0 {
		t.Fatalf("overheads: measured=%v predicted=%v", measured, predicted)
	}
	// The empirical utilization must match the analytic model within
	// 15% (edge effects from the finite window and the replies that
	// straggle past it).
	if rel := math.Abs(measured-predicted) / predicted; rel > 0.15 {
		t.Fatalf("measured %v vs predicted %v (rel err %v)", measured, predicted, rel)
	}
}

// Figure 1's headline at packet level: 90 hosts probed every 0.538 s,
// the round time the cost model gives for a 10% budget, load a rail by
// 10%. A daemon that probes every ordered pair loads it by 20%.
func TestProbeOverheadFigure1Headline(t *testing.T) {
	const budget = 0.10
	measured, predicted, err := ProbeOverhead(90, 538*time.Millisecond, 10*time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(predicted-budget) / budget; rel > 0.01 {
		t.Fatalf("model predicts %v at the headline's interval, want %v", predicted, budget)
	}
	if rel := math.Abs(measured-budget) / budget; rel > 0.15 {
		t.Fatalf("Dual(90) at 0.538 s loads rail 0 by %.4f, want within 15%% of %v", measured, budget)
	}
}

func TestProbeOverheadValidation(t *testing.T) {
	if _, _, err := ProbeOverhead(1, time.Second, time.Second, false); err == nil {
		t.Error("n=1 accepted")
	}
	if _, _, err := ProbeOverhead(4, 0, time.Second, false); err == nil {
		t.Error("zero interval accepted")
	}
}
