package experiments

import (
	"strings"
	"testing"
	"time"

	"drsnet/internal/runtime"
)

func TestFlowRecoveryDRSUnawareApplications(t *testing.T) {
	// The paper's headline, measured end to end: with 200 ms probing
	// the DRS repairs fast enough that one retransmission heals the
	// stream and the connection never notices.
	cfg := DefaultFlowRecoveryConfig(runtime.ProtoDRS, ScenarioNIC)
	res, err := FlowRecovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Survived {
		t.Fatalf("connection did not survive: %+v", res.Flow)
	}
	if res.Flow.Retransmissions > 3 {
		t.Fatalf("%d retransmissions, want ≤ 3", res.Flow.Retransmissions)
	}
	// Max stall ≈ one RTO: the retransmitted segment finds the
	// repaired route.
	if res.Flow.MaxAckStall > cfg.Flow.RTO+500*time.Millisecond {
		t.Fatalf("max stall %v, want ≈ %v", res.Flow.MaxAckStall, cfg.Flow.RTO)
	}
}

func TestFlowRecoveryComparison(t *testing.T) {
	results, err := CompareFlowRecovery(DefaultFlowRecoveryConfig(runtime.ProtoDRS, ScenarioNIC))
	if err != nil {
		t.Fatal(err)
	}
	by := map[string]*FlowRecoveryResult{}
	for _, r := range results {
		by[r.Config.Protocol] = r
	}
	drs, reactive, static := by[runtime.ProtoDRS], by[runtime.ProtoReactive], by[runtime.ProtoStatic]
	if !drs.Survived {
		t.Fatal("DRS connection died")
	}
	if !reactive.Survived {
		// Reactive recovers within its 6 s timeout, inside TCP's
		// retry budget: the connection survives but suffers.
		t.Fatalf("reactive connection died: %+v", reactive.Flow)
	}
	if static.Survived {
		t.Fatal("static connection survived a permanent failure")
	}
	// Within the horizon the static flow is wedged in backoff (the
	// 8-retry schedule stretches past three minutes); its stream has
	// stalled permanently even before the RST.
	if static.Flow.Acked >= static.Flow.Enqueued {
		t.Fatalf("static flow acked everything despite a dead path: %+v", static.Flow)
	}
	// Pain ordering: DRS stalls least, retransmits least.
	if !(drs.Flow.MaxAckStall < reactive.Flow.MaxAckStall) {
		t.Fatalf("stall ordering violated: drs %v vs reactive %v",
			drs.Flow.MaxAckStall, reactive.Flow.MaxAckStall)
	}
	if drs.Flow.Retransmissions > reactive.Flow.Retransmissions {
		t.Fatalf("retransmission ordering violated: drs %d vs reactive %d",
			drs.Flow.Retransmissions, reactive.Flow.Retransmissions)
	}
	var sb strings.Builder
	if err := WriteFlowRecovery(&sb, results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "survived") {
		t.Fatalf("table: %q", sb.String())
	}
	// The wedged stream's row shows its open waits as lower bounds, and
	// every row's columns line up under the header's.
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	for _, l := range lines[1:] {
		if len([]rune(l)) != len([]rune(lines[1])) {
			t.Errorf("row %q is not as wide as the header %q", l, lines[1])
		}
		if f := strings.Fields(l); f[0] == runtime.ProtoStatic && !(strings.HasPrefix(f[4], ">") && strings.HasPrefix(f[5], ">")) {
			t.Errorf("wedged stream shows closed waits: %q", l)
		}
	}
}

func TestFlowRecoveryCrossRail(t *testing.T) {
	res, err := FlowRecovery(DefaultFlowRecoveryConfig(runtime.ProtoDRS, ScenarioCrossRail))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Survived {
		t.Fatalf("relay repair did not save the connection: %+v", res.Flow)
	}
}

func TestFlowRecoveryValidation(t *testing.T) {
	cfg := DefaultFlowRecoveryConfig(runtime.ProtoDRS, ScenarioNIC)
	cfg.Nodes = 2
	if _, err := FlowRecovery(cfg); err == nil {
		t.Error("2-node config accepted")
	}
	cfg = DefaultFlowRecoveryConfig("bogus", ScenarioNIC)
	if _, err := FlowRecovery(cfg); err == nil {
		t.Error("bogus protocol accepted")
	}
	cfg = DefaultFlowRecoveryConfig(runtime.ProtoDRS, ScenarioNIC)
	cfg.Flow.RTO = 0
	if _, err := FlowRecovery(cfg); err == nil {
		t.Error("zero RTO accepted")
	}
}
