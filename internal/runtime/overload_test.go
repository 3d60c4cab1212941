package runtime

import (
	"testing"
	"time"

	"drsnet/internal/chaos"
	"drsnet/internal/overload"
	"drsnet/internal/routing"
)

func TestOverloadTunableReachesDaemon(t *testing.T) {
	spec := ClusterSpec{
		Nodes:    3,
		Protocol: ProtoDRS,
		Duration: 5 * time.Second,
		Tunables: Tunables{Overload: overload.Default()},
	}
	c, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	c.RunFor(2 * time.Second)
	d, ok := c.Daemon(0)
	if !ok {
		t.Fatal("node 0 is not a DRS daemon")
	}
	if d.Status().Overload == nil {
		t.Fatal("overload tunable set but the daemon reports no overload gauges")
	}
	c.StopRouters()
}

func TestOverloadStrayTunableRejected(t *testing.T) {
	spec := ClusterSpec{
		Nodes:    3,
		Protocol: ProtoDRS,
		Duration: 5 * time.Second,
		Tunables: Tunables{Overload: overload.Config{ProbeRate: 1}}, // Enabled is false
	}
	if _, err := Build(spec); err == nil {
		t.Fatal("stray overload field on a disabled config was accepted")
	}
}

// TestResultCountersBankAcrossRestart is the per-node accounting the
// storm campaign rests on: Result.Counters must cover every
// incarnation of a crashed-and-restarted node, not just its last life.
func TestResultCountersBankAcrossRestart(t *testing.T) {
	base := ClusterSpec{
		Nodes:    3,
		Protocol: ProtoDRS,
		Seed:     7,
		Duration: 20 * time.Second,
		Tunables: Tunables{Lifecycle: true},
	}
	whole, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	crashed := base
	crashed.Episodes = []chaos.Episode{{Kind: chaos.Crash, A: 1, Start: 8 * time.Second, Stop: 12 * time.Second}}
	split, err := Run(crashed)
	if err != nil {
		t.Fatal(err)
	}

	if len(split.Counters) != 3 {
		t.Fatalf("Counters has %d nodes, want 3", len(split.Counters))
	}
	// Node 1 was down for 4 of 20 seconds; if only the last life were
	// reported, its probe count would be well under half the uncrashed
	// run's. Banked across lives it stays in the same ballpark.
	wholeProbes := whole.Counters[1][routing.CtrProbesSent]
	splitProbes := split.Counters[1][routing.CtrProbesSent]
	if wholeProbes == 0 {
		t.Fatal("uncrashed run recorded no probes")
	}
	if splitProbes <= wholeProbes/2 {
		t.Fatalf("crashed node's banked probe count %d vs uncrashed %d: first life lost",
			splitProbes, wholeProbes)
	}
}

// TestResultCountersOneWayCrashNotDoubled pins the fix for the
// one-way-crash double count: a node that dies and never restarts must
// contribute its records exactly once.
func TestResultCountersOneWayCrashNotDoubled(t *testing.T) {
	spec := ClusterSpec{
		Nodes:    3,
		Protocol: ProtoDRS,
		Seed:     7,
		Duration: 20 * time.Second,
		Episodes: []chaos.Episode{{Kind: chaos.Crash, A: 1, Start: 10 * time.Second}},
	}
	c, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	c.ScheduleFaults()
	c.RunUntil(10*time.Second + time.Millisecond)
	// The crash just banked the dead life; capture the banked total.
	banked := c.pastCounters[1][routing.CtrProbesSent]
	if banked == 0 {
		t.Fatal("no probes banked at crash time")
	}
	c.RunUntil(spec.Duration)
	c.StopRouters()
	res := c.Finish()
	if got := res.Counters[1][routing.CtrProbesSent]; got != banked {
		t.Fatalf("dead node's probe count %d != banked %d (double-counted)", got, banked)
	}
}
