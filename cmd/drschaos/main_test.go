package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestLossCampaignGolden pins the loss-sweep table to the digit: the
// impairment randomness comes from seeded substreams, so availability,
// flap counts and repair counts are exactly reproducible.
func TestLossCampaignGolden(t *testing.T) {
	const golden = `# chaos campaign: backplane-0 frame loss (4 nodes, 30s, seed 3)
  protocol  intensity   avail%   flaps  damped  repairs mean-failover
       drs       0.00    99.17       0       0        0             -
       drs       0.30    85.42      39       0       11            0s
    static       0.00    99.17       0       0        0             -
    static       0.30    66.67       0       0        0             -
`
	var out, errb bytes.Buffer
	args := []string{"-nodes", "4", "-duration", "30s", "-levels", "0,0.3",
		"-protocols", "drs,static", "-seed", "3"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if out.String() != golden {
		t.Fatalf("loss campaign drifted:\n--- got ---\n%s--- want ---\n%s", out.String(), golden)
	}
}

// TestFlapCampaignGolden pins the flap sweep with damping enabled —
// the damped column being non-zero proves the hold-down engaged.
func TestFlapCampaignGolden(t *testing.T) {
	const golden = `# chaos campaign: rail-0 flap duty cycle (4 nodes, 1m0s, seed 3, damping on)
  protocol  intensity   avail%   flaps  damped  repairs mean-failover
       drs       0.00    99.58       6       0        0             -
       drs       0.50    78.75      48       6       30         667ms
`
	var out, errb bytes.Buffer
	args := []string{"-mode", "flap", "-nodes", "4", "-duration", "60s",
		"-levels", "0,0.5", "-protocols", "drs", "-damping", "-seed", "3"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if out.String() != golden {
		t.Fatalf("flap campaign drifted:\n--- got ---\n%s--- want ---\n%s", out.String(), golden)
	}
}

// TestCrashCampaignGolden pins the crash–restart sweep: each nonzero
// MTTR level yields a cold and a warm row, and the warm start's
// restored checkpoint must show as strictly higher availability and
// a shorter post-restart recovery for the DRS. The reactive baseline
// has no checkpoint to restore, so its warm rows equal its cold ones.
// (The mttr-0 repair count dropped by one when the one-way-crash
// double count was fixed: the dead node's banked repairs used to be
// re-read from its still-registered router at Finish.)
func TestCrashCampaignGolden(t *testing.T) {
	const golden = `# chaos campaign: node-1 crash MTTR (4 nodes, 30s, seed 3)
  protocol   mttr-s  start   avail%  crashes  repairs   recovery
       drs     0.00   cold    62.50        1        8          -
       drs     2.00   cold    90.83        1       12         2s
       drs     2.00   warm    92.50        1       11         0s
       drs     8.00   cold    83.96        1       12         2s
       drs     8.00   warm    85.62        1       11         0s
  reactive     0.00   cold    56.25        1        0          -
  reactive     2.00   cold    86.04        1        0         0s
  reactive     2.00   warm    86.04        1        0         0s
  reactive     8.00   cold    76.04        1        0         0s
  reactive     8.00   warm    76.04        1        0         0s
`
	var out, errb bytes.Buffer
	args := []string{"-mode", "crash", "-nodes", "4", "-duration", "30s",
		"-protocols", "drs,reactive", "-seed", "3"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if out.String() != golden {
		t.Fatalf("crash campaign drifted:\n--- got ---\n%s--- want ---\n%s", out.String(), golden)
	}
}

// TestCrashCampaignAdaptiveRTOGolden: with -rto the adaptive probe
// deadline detects the dead node's silence within the backed-off RTT
// envelope instead of at the next round, cutting the cold recovery
// from 2 s to 1 s while the warm restore stays instant.
func TestCrashCampaignAdaptiveRTOGolden(t *testing.T) {
	const golden = `# chaos campaign: node-1 crash MTTR (4 nodes, 30s, seed 3, adaptive rto)
  protocol   mttr-s  start   avail%  crashes  repairs   recovery
       drs     0.00   cold    65.42        1        8          -
       drs     2.00   cold    96.04        1       12         1s
       drs     2.00   warm    96.88        1       11         0s
       drs     8.00   cold    87.71        1       12         1s
       drs     8.00   warm    88.54        1       11         0s
`
	var out, errb bytes.Buffer
	args := []string{"-mode", "crash", "-nodes", "4", "-duration", "30s",
		"-protocols", "drs", "-rto", "-seed", "3"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if out.String() != golden {
		t.Fatalf("rto crash campaign drifted:\n--- got ---\n%s--- want ---\n%s", out.String(), golden)
	}
}

// TestWorkersIdentical: the sweep is sharded over the parallel engine;
// the worker count must change wall time only, never a byte of output.
func TestWorkersIdentical(t *testing.T) {
	render := func(workers string) string {
		var out, errb bytes.Buffer
		args := []string{"-mode", "flap", "-nodes", "4", "-duration", "30s",
			"-levels", "0,0.25,0.5", "-protocols", "drs,reactive", "-damping",
			"-workers", workers}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("workers=%s: exit %d, stderr: %s", workers, code, errb.String())
		}
		return out.String()
	}
	ref := render("1")
	for _, w := range []string{"2", "8", "0"} {
		if got := render(w); got != ref {
			t.Fatalf("workers=%s output differs:\n--- got ---\n%s--- want ---\n%s", w, got, ref)
		}
	}
}

// TestCrashWorkersIdentical: the crash sweep interleaves cold and warm
// cells per level; sharding must not reorder or perturb a byte.
func TestCrashWorkersIdentical(t *testing.T) {
	render := func(workers string) string {
		var out, errb bytes.Buffer
		args := []string{"-mode", "crash", "-nodes", "4", "-duration", "30s",
			"-levels", "0,2,8", "-protocols", "drs,reactive", "-rto",
			"-workers", workers}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("workers=%s: exit %d, stderr: %s", workers, code, errb.String())
		}
		return out.String()
	}
	ref := render("1")
	for _, w := range []string{"2", "8", "0"} {
		if got := render(w); got != ref {
			t.Fatalf("workers=%s output differs:\n--- got ---\n%s--- want ---\n%s", w, got, ref)
		}
	}
}

// TestPlotMode: -plot renders the ASCII chart with per-protocol legend.
func TestPlotMode(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-nodes", "4", "-duration", "20s", "-levels", "0,0.2",
		"-protocols", "drs,static", "-plot"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, want := range []string{"availability (%)", "intensity", "drs", "static"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("plot output missing %q:\n%s", want, out.String())
		}
	}
}

// TestPlotGolden pins the -plot chart byte for byte in two modes: loss,
// and crash, whose cold and warm runs are separate legend entries on
// an MTTR axis.
func TestPlotGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"plot_loss.golden", []string{"-nodes", "4", "-duration", "20s", "-levels", "0,0.2",
			"-protocols", "drs,static", "-plot"}},
		{"plot_crash.golden", []string{"-mode", "crash", "-nodes", "4", "-duration", "30s",
			"-protocols", "drs,reactive", "-seed", "3", "-plot"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, errb.String())
			}
			if out.String() != string(want) {
				t.Fatalf("plot drifted:\n--- got ---\n%s--- want ---\n%s", out.String(), want)
			}
		})
	}
}

// TestBadFlags exercises the error paths.
func TestBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "meteor"},
		{"-protocols", "ospf"},
		{"-levels", "lots"},
		{"-levels", "1.5"},
		{"-nodes", "1"},
		{"-duration", "-3s"},
		{"-not-a-flag"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("args %v accepted", args)
		}
		if errb.Len() == 0 {
			t.Errorf("args %v produced no diagnostics", args)
		}
	}
}

// A protocol listed twice is refused before anything runs, in the
// default lineup's mode and in failover mode alike.
func TestDuplicateProtocolRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-protocols", "drs,drs"},
		{"-mode", "failover", "-protocols", "drs, reactive,drs"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 1 {
			t.Errorf("args %v: exit %d, want 1", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("args %v printed a campaign:\n%s", args, out.String())
		}
		if want := `drschaos: protocol "drs" listed twice in -protocols`; !strings.Contains(errb.String(), want) {
			t.Errorf("args %v: stderr %q, want %q", args, errb.String(), want)
		}
	}
}

// failoverGolden is the static fast-failover head-to-head table:
// TestFailoverCampaignGolden pins it, and EXPERIMENTS.md quotes rows
// of it.
const failoverGolden = `# chaos campaign: static fast-failover head-to-head (4 nodes, 30s, seed 3)
       protocol   regime   avail%  loops  revisits  drops  repairs
 failover-rotor    clean    99.17      0         0      4        0
 failover-rotor     loss    88.96      0         0     53        0
 failover-rotor     flap    81.25      0         0      2        0
 failover-rotor    crash    85.83      0         0     36        0
 failover-rotor  dynamic    93.12      0         0      3        0
 failover-arbor    clean    99.17      0         0      4        0
 failover-arbor     loss    88.96      0         0     53        0
 failover-arbor     flap    81.25    172         0     46        0
 failover-arbor    crash    85.83      0         0     36        0
 failover-arbor  dynamic    99.17      0         0      4        0
failover-bounce    clean    99.17      0         0      4        0
failover-bounce     loss    88.96      0         0     53        0
failover-bounce     flap    81.25      0         0     46        0
failover-bounce    crash    85.83      0         0     36        0
failover-bounce  dynamic    99.17      0         0      4        0
            drs    clean    99.17      0         0      4        0
            drs     loss    80.42      0         0     94        9
            drs     flap    87.50      0         0     60       21
            drs    crash    83.96      0         0     36       12
            drs  dynamic    85.83      0         0     68       23
      linkstate    clean    99.17      0         0      4        0
      linkstate     loss    79.38      0         0     99        0
      linkstate     flap    78.12     36         0    129        0
      linkstate    crash    79.17     12         0     60        0
      linkstate  dynamic    75.00      0         0    120        0
       reactive    clean    99.17      0         0      4        0
       reactive     loss    77.29      0         0    109        0
       reactive     flap    81.25      0         0     90        0
       reactive    crash    76.04      0         0     82        0
       reactive  dynamic    75.00      0         0    120        0
`

// TestFailoverCampaignGolden pins the static fast-failover head-to-head
// to the digit, default lineup included (no -protocols flag: the mode
// swaps in the static family plus the convergence protocols). The
// rows carry the head-to-head story: the relay-capable variants hold
// the clean-run availability through the dynamic regime that degrades
// every convergence protocol, the stateless arborescence is convicted
// of forwarding loops when a node is fully cut off mid-flap, and the
// bounce variant matches its availability with provable loop-freedom.
func TestFailoverCampaignGolden(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-mode", "failover", "-nodes", "4", "-duration", "30s", "-seed", "3"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if out.String() != failoverGolden {
		t.Fatalf("failover head-to-head drifted:\n--- got ---\n%s--- want ---\n%s", out.String(), failoverGolden)
	}
}

// TestExperimentsQuotesFailoverGolden: every row of the head-to-head
// excerpt in EXPERIMENTS.md appears verbatim in the pinned table, so
// the write-up cannot drift from what the campaign prints.
func TestExperimentsQuotesFailoverGolden(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	_, after, ok := strings.Cut(string(doc), "The head-to-head campaign (`drschaos -mode failover`")
	if !ok {
		t.Fatal("EXPERIMENTS.md has no failover head-to-head excerpt")
	}
	_, block, _ := strings.Cut(after, "```\n")
	block, _, ok = strings.Cut(block, "```")
	if !ok || strings.TrimSpace(block) == "" {
		t.Fatal("the failover excerpt in EXPERIMENTS.md has no table")
	}
	rows := strings.Split(failoverGolden, "\n")
	for _, line := range strings.Split(strings.TrimSuffix(block, "\n"), "\n") {
		if !slices.Contains(rows, line) {
			t.Errorf("EXPERIMENTS.md quotes a row the golden table does not hold:\n%s", line)
		}
	}
}

// TestFailoverWorkersIdentical: the head-to-head grid — invariant
// verdict columns included — is byte-identical at every worker count.
func TestFailoverWorkersIdentical(t *testing.T) {
	render := func(workers string) string {
		var out, errb bytes.Buffer
		args := []string{"-mode", "failover", "-nodes", "4", "-duration", "15s",
			"-protocols", "failover-rotor,failover-bounce,drs", "-workers", workers}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("workers=%s: exit %d, stderr: %s", workers, code, errb.String())
		}
		return out.String()
	}
	ref := render("1")
	for _, w := range []string{"2", "8", "0"} {
		if got := render(w); got != ref {
			t.Fatalf("workers=%s output differs:\n--- got ---\n%s--- want ---\n%s", w, got, ref)
		}
	}
}

// TestFailoverModeFlagErrors: the regime ladder replaces the numeric
// intensity axis, so -levels and -plot must be refused loudly.
func TestFailoverModeFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "failover", "-levels", "0,0.5"},
		{"-mode", "failover", "-plot"},
		{"-mode", "failover", "-nodes", "2"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("args %v accepted", args)
		}
		if errb.Len() == 0 {
			t.Errorf("args %v produced no diagnostics", args)
		}
	}
}

// TestStormCampaignGolden pins the correlated-failure storm sweep to
// the digit. Each fraction level yields a budget-off and a budget-on
// row; the headline property is in the max-rt column: without budgets
// the worst node's probe retransmits grow with the crash fraction,
// with budgets they stay pinned under the token-bucket bound
// (rate·T + burst = 2·30 + 4 = 64) while the shed and degraded
// columns show the protection engaging.
func TestStormCampaignGolden(t *testing.T) {
	const golden = `# chaos campaign: correlated-failure storm fraction (5 nodes, 30s, seed 3)
  protocol  fraction  budget   avail%  crashes  repairs   shed  degraded  max-rt  max-qry
       drs      0.00     off    98.33        0       20      0         0     128        0
       drs      0.00      on    98.33        0       20    310         5      53        0
       drs      0.50     off    93.33        2       26      0         0     144       14
       drs      0.50      on    90.67        2       24    210         3      53        8
`
	var out, errb bytes.Buffer
	args := []string{"-mode", "storm", "-nodes", "5", "-duration", "30s",
		"-levels", "0,0.5", "-seed", "3"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if out.String() != golden {
		t.Fatalf("storm campaign drifted:\n--- got ---\n%s--- want ---\n%s", out.String(), golden)
	}
	// Beyond the exact bytes, assert the property the table exists to
	// demonstrate so a regenerated golden can't silently lose it: every
	// budgeted row's max-rt must sit under the bucket bound.
	const bound = 2*30 + 4
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.Contains(line, " on ") {
			continue
		}
		f := strings.Fields(line)
		if rt, err := strconv.Atoi(f[len(f)-2]); err != nil || rt > bound {
			t.Errorf("budgeted row exceeds retransmit bound %d: %q", bound, line)
		}
	}
}

// TestStormWorkersIdentical: the storm sweep runs budget-off/on pairs
// per fraction level across the parallel engine; the per-node counter
// collection must stay byte-identical at any worker count.
func TestStormWorkersIdentical(t *testing.T) {
	render := func(workers string) string {
		var out, errb bytes.Buffer
		args := []string{"-mode", "storm", "-nodes", "4", "-duration", "20s",
			"-levels", "0,0.5", "-workers", workers}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("workers=%s: exit %d, stderr: %s", workers, code, errb.String())
		}
		return out.String()
	}
	ref := render("1")
	for _, w := range []string{"2", "8", "0"} {
		if got := render(w); got != ref {
			t.Fatalf("workers=%s output differs:\n--- got ---\n%s--- want ---\n%s", w, got, ref)
		}
	}
}

// TestStormModeFlagErrors: the storm table has no plot rendering, the
// fraction axis must stay below 1 (at least one survivor), and the
// campaign needs enough nodes for a meaningful correlated kill.
func TestStormModeFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "storm", "-plot"},
		{"-mode", "storm", "-levels", "0,1"},
		{"-mode", "storm", "-nodes", "3"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 {
			t.Errorf("args %v accepted", args)
		}
		if errb.Len() == 0 {
			t.Errorf("args %v produced no diagnostics", args)
		}
	}
}
