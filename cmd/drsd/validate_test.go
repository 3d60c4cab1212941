package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goodCluster is a minimal valid ClusterSpec scenario document.
const goodCluster = `{
  "nodes": 3,
  "duration": "10s",
  "probeInterval": "100ms",
  "traffic": [{"from": 0, "to": 1, "interval": "500ms"}]
}`

// flapCluster parses, but its one impairment flaps with a period too
// short to spend any time down, so the daemon cannot be built from it.
const flapCluster = `{
  "nodes": 3,
  "duration": "10s",
  "traffic": [{"from": 0, "to": 1, "interval": "500ms"}],
  "impairments": [{"start": "1s", "kind": "nic", "node": 0, "rail": 0, "flapPeriod": "1ns"}]
}`

// write drops a file into dir and returns its path.
func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func goodNodeConfig(listen, peers string) string {
	return fmt.Sprintf(`{
  "node": 0,
  "cluster": "cluster.json",
  "listen": %s,
  "peers": %s
}`, listen, peers)
}

const (
	goodListen = `["127.0.0.1:0", "127.0.0.1:0"]`
	goodPeers  = `[["127.0.0.1:0","127.0.0.1:0"],["127.0.0.1:0","127.0.0.1:0"],["127.0.0.1:0","127.0.0.1:0"]]`
)

// TestValidateErrors is the golden contract for drsd -validate: each
// malformed config produces exactly this error string (module the
// config's own path, which the test substitutes).
func TestValidateErrors(t *testing.T) {
	cases := []struct {
		name    string
		cluster string // cluster.json content; empty = omit the file
		config  string
		wantErr string // %q-style template; CONFIG expands to the config path
	}{
		{
			name:    "no cluster named",
			cluster: goodCluster,
			config:  `{"node": 0, "listen": [], "peers": []}`,
			wantErr: "drsd: config CONFIG: no cluster spec named",
		},
		{
			name:    "unknown field",
			cluster: goodCluster,
			config:  `{"node": 0, "cluster": "cluster.json", "listen": [], "peers": [], "watchdog": true}`,
			wantErr: `drsd: config CONFIG: json: unknown field "watchdog"`,
		},
		{
			name:    "missing cluster file",
			config:  goodNodeConfig(goodListen, goodPeers),
			wantErr: "drsd: open CLUSTER: no such file or directory",
		},
		{
			name:    "invalid cluster document",
			cluster: `{"nodes": 3, "duration": "10s", "traffic": []}`,
			config:  goodNodeConfig(goodListen, goodPeers),
			wantErr: "drsd: cluster cluster.json: scenario: no traffic flows",
		},
		{
			name:    "impairment the runtime rejects",
			cluster: flapCluster,
			config:  goodNodeConfig(goodListen, goodPeers),
			wantErr: "drsd: cluster cluster.json: runtime: chaos: impairments[0] (nic(0,0)): flap period 1ns with duty 0.5 rounds to zero down-time",
		},
		{
			name: "linkstate hello past its dead interval",
			cluster: `{
  "nodes": 3, "duration": "10s", "protocol": "linkstate", "advertiseInterval": "5s",
  "traffic": [{"from": 0, "to": 1, "interval": "500ms"}]
}`,
			config:  goodNodeConfig(goodListen, goodPeers),
			wantErr: "drsd: cluster cluster.json: runtime: advertise interval 5s above the link-state dead interval 4s",
		},
		{
			name: "reactive route timeout below its advertisements",
			cluster: `{
  "nodes": 3, "duration": "10s", "protocol": "reactive", "advertiseInterval": "2s", "routeTimeout": "1s",
  "traffic": [{"from": 0, "to": 1, "interval": "500ms"}]
}`,
			config:  goodNodeConfig(goodListen, goodPeers),
			wantErr: "drsd: cluster cluster.json: runtime: route timeout 1s below advertise interval 2s",
		},
		{
			name: "drs probe interval with no query timeout",
			cluster: `{
  "nodes": 3, "duration": "10s", "probeInterval": "1ns",
  "traffic": [{"from": 0, "to": 1, "interval": "500ms"}]
}`,
			config:  goodNodeConfig(goodListen, goodPeers),
			wantErr: "drsd: cluster cluster.json: runtime: probe interval 1ns leaves the DRS no query timeout (half the interval)",
		},
		{
			name: "fabric topology rejected",
			cluster: `{
  "topology": {"kind": "fatTree", "k": 4},
  "duration": "10s",
  "traffic": [{"from": 0, "to": 1, "interval": "500ms"}]
}`,
			config:  goodNodeConfig(`["a","b","c","d"]`, goodPeers),
			wantErr: `drsd: cluster cluster.json: live mode supports dual-rail clusters only, not "fatTree" fabrics`,
		},
		{
			name:    "node out of range",
			cluster: goodCluster,
			config:  `{"node": 5, "cluster": "cluster.json", "listen": ` + goodListen + `, "peers": ` + goodPeers + `}`,
			wantErr: "drsd: node 5 out of range [0,3)",
		},
		{
			name:    "listen rail count",
			cluster: goodCluster,
			config:  goodNodeConfig(`["127.0.0.1:0"]`, goodPeers),
			wantErr: "drsd: listen has 1 addresses, cluster has 2 rails",
		},
		{
			name:    "peers node count",
			cluster: goodCluster,
			config:  goodNodeConfig(goodListen, `[["a","b"],["c","d"]]`),
			wantErr: "drsd: peers has 2 rows, cluster has 3 nodes",
		},
		{
			name:    "ragged peer row",
			cluster: goodCluster,
			config:  goodNodeConfig(goodListen, `[["a","b"],["c"],["e","f"]]`),
			wantErr: "drsd: peers[1] has 1 addresses, cluster has 2 rails",
		},
		{
			name:    "negative period",
			cluster: goodCluster,
			config: `{"node": 0, "cluster": "cluster.json", "listen": ` + goodListen +
				`, "peers": ` + goodPeers + `, "statusEvery": "-1s"}`,
			wantErr: "drsd: negative checkpointEvery or statusEvery",
		},
		{
			name:    "fractional period",
			cluster: goodCluster,
			config: `{"node": 0, "cluster": "cluster.json", "listen": ` + goodListen +
				`, "peers": ` + goodPeers + `, "statusEvery": 0.5}`,
			wantErr: "drsd: config CONFIG: scenario: duration 0.5 is not a whole number of nanoseconds in int64 range",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if tc.cluster != "" {
				write(t, dir, "cluster.json", tc.cluster)
			}
			cfgPath := write(t, dir, "node.json", tc.config)
			_, _, err := loadConfig(cfgPath)
			if err == nil {
				t.Fatalf("config accepted, want %q", tc.wantErr)
			}
			want := tc.wantErr
			want = strings.ReplaceAll(want, "CONFIG", cfgPath)
			want = strings.ReplaceAll(want, "CLUSTER", filepath.Join(dir, "cluster.json"))
			if err.Error() != want {
				t.Fatalf("error mismatch\n got: %s\nwant: %s", err, want)
			}
		})
	}
}

// TestValidateAccepts checks a well-formed config loads with the
// documented defaults applied.
func TestValidateAccepts(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "cluster.json", goodCluster)
	cfgPath := write(t, dir, "node.json", goodNodeConfig(goodListen, goodPeers))
	cfg, spec, err := loadConfig(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Nodes != 3 || cfg.Node != 0 {
		t.Fatalf("spec nodes %d, cfg node %d", spec.Nodes, cfg.Node)
	}
	if cfg.CheckpointEvery == 0 || cfg.StatusEvery == 0 {
		t.Fatal("periods not defaulted")
	}
}

// TestValidateExampleConfigs keeps the shipped examples/daemon set
// loadable — the README quick-start depends on it.
func TestValidateExampleConfigs(t *testing.T) {
	for i := 0; i < 3; i++ {
		path := filepath.Join("..", "..", "examples", "daemon", fmt.Sprintf("node%d.json", i))
		cfg, spec, err := loadConfig(path)
		if err != nil {
			t.Fatalf("examples/daemon/node%d.json: %v", i, err)
		}
		if cfg.Node != i || spec.Nodes != 3 {
			t.Fatalf("examples/daemon/node%d.json: node %d of %d", i, cfg.Node, spec.Nodes)
		}
	}
}
