package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"drsnet/internal/clock"
	"drsnet/internal/runtime"
	"drsnet/internal/transport"
)

// FuzzLoadConfig writes a node config and the cluster document it
// names into a fresh directory and loads them. loadConfig must return
// an error or a pair drsd can boot from: the node file matches the
// cluster's shape, both periods are positive, and runtime.BuildNode
// assembles the node's router from the spec. It must never panic.
func FuzzLoadConfig(f *testing.F) {
	example := func(name string) []byte {
		b, err := os.ReadFile(filepath.Join("..", "..", "examples", "daemon", name))
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(example("node0.json"), example("cluster.json"))
	f.Add(example("node2.json"), example("cluster.json"))
	f.Add([]byte(goodNodeConfig(goodListen, goodPeers)), []byte(goodCluster))
	f.Add([]byte(`{"node": 1, "cluster": "cluster.json", "listen": ["a"], "peers": [["a"],["b"]]}`),
		[]byte(`{"nodes": 2, "rails": 1, "protocol": "linkstate", "duration": "1s", "traffic": [{"from": 0, "to": 1, "interval": "1s"}]}`))
	f.Add([]byte(`{"node": 0, "cluster": "cluster.json", "listen": [], "peers": [], "statusEvery": "-1s"}`),
		[]byte(`{"topology": {"kind": "fatTree", "k": 4}, "duration": "10s"}`))
	f.Add([]byte(`{"cluster": "/dev/null"}`), []byte(`{}`))
	f.Add([]byte(goodNodeConfig(goodListen, goodPeers)), []byte(flapCluster))
	f.Fuzz(func(t *testing.T, config, cluster []byte) {
		// The target stays inside its own directory: a node file that
		// names a cluster document elsewhere is not an input.
		var peek struct{ Cluster string }
		if json.NewDecoder(bytes.NewReader(config)).Decode(&peek) == nil &&
			peek.Cluster != "" && !filepath.IsLocal(peek.Cluster) {
			return
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "cluster.json"), cluster, 0o644); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "node.json")
		if err := os.WriteFile(path, config, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg, spec, err := loadConfig(path)
		if err != nil {
			return
		}
		rails := spec.Rails
		if cfg.Node < 0 || cfg.Node >= spec.Nodes {
			t.Fatalf("node %d accepted for a %d-node cluster", cfg.Node, spec.Nodes)
		}
		if len(cfg.Listen) != rails || len(cfg.Peers) != spec.Nodes {
			t.Fatalf("listen %d / peers %d accepted for %d nodes × %d rails",
				len(cfg.Listen), len(cfg.Peers), spec.Nodes, rails)
		}
		for i, row := range cfg.Peers {
			if len(row) != rails {
				t.Fatalf("peers[%d] has %d addresses for %d rails", i, len(row), rails)
			}
		}
		if cfg.CheckpointEvery <= 0 || cfg.StatusEvery <= 0 {
			t.Fatalf("periods %v / %v accepted", cfg.CheckpointEvery, cfg.StatusEvery)
		}
		clk := clock.NewManual()
		mem := transport.NewMem(spec.Nodes, rails, clk, time.Millisecond)
		if _, err := runtime.BuildNode(spec, cfg.Node, mem.Node(cfg.Node), clk, 1, nil); err != nil {
			t.Fatalf("config accepted, but the node cannot be built: %v", err)
		}
	})
}
