package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"drsnet/internal/runtime"
)

// TestRecoveryGoldenAllProtocols pins the default comparison table —
// every registered protocol, including the link-state baseline, on the
// canonical NIC-failure run.
func TestRecoveryGoldenAllProtocols(t *testing.T) {
	const golden = `# Recovery: scenario=nic nodes=10 traffic every 100ms, failure at 10s
protocol             sent      lost   recov       outage       detect       repair  masked tcp-alive
drs                   400        21    true  2.00031412s           2s           2s   false      true
failover-arbor        400         1    true      11.72µs            –            –    true      true
failover-bounce       400         1    true      11.72µs            –            –    true      true
failover-rotor        400         1    true      11.72µs            –            –    true      true
linkstate             400        32    true  3.10001172s            –            –   false      true
reactive              400        52    true  5.10001172s            –            –   false      true
static                400       301   false         >30s            –            –   false     false
`
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if out.String() != golden {
		t.Fatalf("recovery table drifted:\n--- got ---\n%s--- want ---\n%s", out.String(), golden)
	}
}

// TestSingleProtocolRowsMatchComparison: each -protocol run reproduces
// exactly its row of the all-protocols table.
func TestSingleProtocolRowsMatchComparison(t *testing.T) {
	var all, errb bytes.Buffer
	if code := run(nil, &all, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	rows := map[string]string{}
	lines := strings.Split(strings.TrimSuffix(all.String(), "\n"), "\n")
	for _, line := range lines[2:] {
		rows[strings.Fields(line)[0]] = line
	}
	for _, p := range runtime.Protocols() {
		var out bytes.Buffer
		errb.Reset()
		if code := run([]string{"-protocol", p}, &out, &errb); code != 0 {
			t.Fatalf("-protocol %s: exit %d, stderr: %s", p, code, errb.String())
		}
		single := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
		got := single[len(single)-1]
		if got != rows[p] {
			t.Errorf("-protocol %s row drifted from the comparison:\n got %q\nwant %q", p, got, rows[p])
		}
	}
}

// TestCoverageWorkersIdentical pins the campaign tables byte for byte:
// the serial -nodes 5 table, which every worker count must reproduce,
// and the serial -nodes 8 -probe 500ms table. Each scenario stops at its
// verdict, and the tables are the ones a run of every scenario to its
// deadline prints.
func TestCoverageWorkersIdentical(t *testing.T) {
	const n5 = `# Fault coverage: 5 nodes, all scenarios up to 2 faults (78 total)
class                    scenarios survivable  recovered  mean-outage   max-outage inconsis
backplane                        2          2          2           1s           2s        0
backplane+backplane              1          0          0           0s           0s        0
backplane+nic                   20         16         16           1s           2s        0
nic                             10         10         10        400ms           2s        0
nic+nic                         45         43         43        698ms           2s        0
TOTAL                           78         71         71        732ms           2s        0
`
	const n8 = `# Fault coverage: 8 nodes, all scenarios up to 2 faults (171 total)
class                    scenarios survivable  recovered  mean-outage   max-outage inconsis
backplane                        2          2          2        500ms           1s        0
backplane+backplane              1          0          0           0s           0s        0
backplane+nic                   32         28         28        500ms           1s        0
nic                             16         16         16        125ms           1s        0
nic+nic                        120        118        118        229ms           1s        0
TOTAL                          171        164        164        268ms           1s        0
`
	render := func(args ...string) string {
		var out, errb bytes.Buffer
		if code := run(append([]string{"-coverage"}, args...), &out, &errb); code != 0 {
			t.Fatalf("%v: exit %d, stderr: %s", args, code, errb.String())
		}
		return out.String()
	}
	if got := render("-nodes", "8", "-probe", "500ms", "-workers", "1"); got != n8 {
		t.Errorf("-nodes 8 -probe 500ms drifted:\n--- got ---\n%s--- want ---\n%s", got, n8)
	}
	for _, w := range []string{"1", "2", "7", "0"} {
		if got := render("-nodes", "5", "-workers", w); got != n5 {
			t.Fatalf("workers=%s output differs:\n--- got ---\n%s--- want ---\n%s", w, got, n5)
		}
	}
}

// TestCoverageRejectsTimingFlags: the campaign has its own timing, so
// the recovery experiment's timing flags are refused, not ignored.
func TestCoverageRejectsTimingFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-coverage", "-nodes", "4", "-traffic", "50ms"}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "do not apply to -coverage") {
		t.Fatalf("stderr %q does not say why -traffic was refused", errb.String())
	}
}

// TestUnknownProtocolListsRegistry: the registry's error surfaces the
// available names on the command line.
func TestUnknownProtocolListsRegistry(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-protocol", "ospf"}, &out, &errb); code == 0 {
		t.Fatal("unknown -protocol accepted")
	}
	msg := errb.String()
	for _, name := range runtime.Protocols() {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list registered protocol %q", msg, name)
		}
	}
}

// TestTraceRequiresSingleProtocol pins the guidance message.
func TestTraceRequiresSingleProtocol(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-trace"}, &out, &errb); code == 0 {
		t.Fatal("-trace without a single -protocol accepted")
	}
	if !strings.Contains(errb.String(), "linkstate") {
		t.Errorf("error %q does not list the registered protocols", errb.String())
	}
}

// TestConfigScenario drives a shipped declarative scenario end to end.
func TestConfigScenario(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-config", "../../examples/scenarios/nic-failover.json"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "route repairs:") {
		t.Fatalf("scenario report missing repairs line:\n%s", out.String())
	}
}

// TestPartitionHealGolden pins the shipped partition scenario — the
// asymmetric one-way cut a nemesis campaign surfaced, shrunk to a
// single episode. The 0→1 flow loses frames only until strict-evidence
// DRS accumulates misses on the dead tx direction and fails over; the
// reverse flow barely notices. The digits are the regression test.
func TestPartitionHealGolden(t *testing.T) {
	const golden = `# asymmetric partition found by drsnemesis, shrunk to one episode
  from     to       sent  delivered       loss
     0      1        150        144      4.00%
     1      0        150        149      0.67%
route repairs: 2   utilization rail0 0.0206%  rail1 0.0269%
`
	var out, errb bytes.Buffer
	code := run([]string{"-config", "../../examples/scenarios/partition-heal.json"}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if out.String() != golden {
		t.Fatalf("partition-heal report drifted:\n--- got ---\n%s--- want ---\n%s", out.String(), golden)
	}
}

// TestScenarioTraceGolden pins every shipped scenario's report and
// state-change trace byte for byte: the SHA-256 of `drsim -config F
// -trace` for each examples/scenarios document.
func TestScenarioTraceGolden(t *testing.T) {
	for _, tc := range []struct{ file, sum string }{
		{"fat-tree.json", "cad9c2e92b375a7721609f965f87ff6c019b6ae18646a62094001d29fef05648"},
		{"flapping-rail.json", "a3e468b262151adf9fcea6f3764dba163a45b46a0d239184610a166fd83ee55b"},
		{"lossy-switched.json", "d70fb05ad886da9991a4e456fc8b29846cec430f717f2c0f8e1ebc618e1e00b0"},
		{"nic-failover.json", "acf7f9e7a5e2839762d148de81fa3b90674e4f59b80f36e675c238b4bd905ca4"},
		{"partition-heal.json", "bd65ecb37f6b3769852fcda4105231703f25c42d36b34c89aa06d265c253f3a5"},
		{"rolling-backplane-maintenance.json", "5cc5a14a19abe224fb3a83b8e94e910ff04033f9ea9207e912cf6a257bb89767"},
		{"rolling-crash.json", "f8988e69233526134450b1342a6b012d07857e18ce1c3897697b4b7dc0538bd8"},
		{"static-failover.json", "d2097bcbcc8dec695b592dd8298ad37c9547b2eb44fe6c60f27ddd63a591b7e5"},
	} {
		t.Run(tc.file, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run([]string{"-config", "../../examples/scenarios/" + tc.file, "-trace"}, &out, &errb); code != 0 {
				t.Fatalf("exit %d, stderr: %s", code, errb.String())
			}
			sum := sha256.Sum256(out.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.sum {
				t.Fatalf("report and trace digest %s, want %s", got, tc.sum)
			}
		})
	}
}
