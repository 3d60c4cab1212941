package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"drsnet/internal/runtime"
	"drsnet/internal/scenario"
	"drsnet/internal/transport"
)

// Config is one daemon's node file: which node of which cluster this
// process is, where its sockets live, and how it persists and reports.
// The cluster itself — shape, protocol, tunables — comes from the
// referenced ClusterSpec scenario document, the exact same JSON
// cmd/drsim executes (its traffic and duration describe the simulated
// workload and are ignored live).
type Config struct {
	// Node is the local node index.
	Node int `json:"node"`
	// Cluster is the path to the ClusterSpec scenario JSON, resolved
	// relative to this config file.
	Cluster string `json:"cluster"`
	// Listen holds this node's bind address per rail.
	Listen []string `json:"listen"`
	// Peers holds every node's per-rail address: peers[node][rail].
	Peers [][]string `json:"peers"`
	// Checkpoint is the warm-start image path. Empty disables
	// checkpointing (every restart is cold).
	Checkpoint string `json:"checkpoint,omitempty"`
	// CheckpointEvery is the persistence period (default 1s).
	CheckpointEvery scenario.Duration `json:"checkpointEvery,omitempty"`
	// Status is the status-snapshot path, rewritten atomically each
	// period; empty emits JSON lines on stdout instead.
	Status string `json:"status,omitempty"`
	// StatusEvery is the reporting period (default 1s).
	StatusEvery scenario.Duration `json:"statusEvery,omitempty"`
	// HTTPAddr, when set, serves GET /status and /metrics there.
	HTTPAddr string `json:"httpAddr,omitempty"`
}

// loadConfig parses and cross-validates a node config, returning it
// together with the normalized cluster spec it names. Every error
// string is part of the -validate contract and golden-tested.
func loadConfig(path string) (*Config, runtime.ClusterSpec, error) {
	var spec runtime.ClusterSpec
	f, err := os.Open(path)
	if err != nil {
		return nil, spec, fmt.Errorf("drsd: %v", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var cfg Config
	if err := dec.Decode(&cfg); err != nil {
		return nil, spec, fmt.Errorf("drsd: config %s: %v", path, err)
	}
	if cfg.Cluster == "" {
		return nil, spec, fmt.Errorf("drsd: config %s: no cluster spec named", path)
	}
	clusterPath := cfg.Cluster
	if !filepath.IsAbs(clusterPath) {
		clusterPath = filepath.Join(filepath.Dir(path), clusterPath)
	}
	cf, err := os.Open(clusterPath)
	if err != nil {
		return nil, spec, fmt.Errorf("drsd: %v", err)
	}
	defer cf.Close()
	sc, err := scenario.Load(cf)
	if err != nil {
		return nil, spec, fmt.Errorf("drsd: cluster %s: %v", cfg.Cluster, err)
	}
	spec, err = sc.Spec()
	if err != nil {
		return nil, spec, fmt.Errorf("drsd: cluster %s: %v", cfg.Cluster, err)
	}
	if spec.Fabric() != nil {
		return nil, spec, fmt.Errorf("drsd: cluster %s: live mode supports dual-rail clusters only, not %q fabrics", cfg.Cluster, spec.Topology.Kind)
	}
	if cfg.Node < 0 || cfg.Node >= spec.Nodes {
		return nil, spec, fmt.Errorf("drsd: node %d out of range [0,%d)", cfg.Node, spec.Nodes)
	}
	if len(cfg.Listen) != spec.Rails {
		return nil, spec, fmt.Errorf("drsd: listen has %d addresses, cluster has %d rails", len(cfg.Listen), spec.Rails)
	}
	if len(cfg.Peers) != spec.Nodes {
		return nil, spec, fmt.Errorf("drsd: peers has %d rows, cluster has %d nodes", len(cfg.Peers), spec.Nodes)
	}
	for i, row := range cfg.Peers {
		if len(row) != spec.Rails {
			return nil, spec, fmt.Errorf("drsd: peers[%d] has %d addresses, cluster has %d rails", i, len(row), spec.Rails)
		}
	}
	if cfg.CheckpointEvery < 0 || cfg.StatusEvery < 0 {
		return nil, spec, fmt.Errorf("drsd: negative checkpointEvery or statusEvery")
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = scenario.Duration(time.Second)
	}
	if cfg.StatusEvery == 0 {
		cfg.StatusEvery = scenario.Duration(time.Second)
	}
	return &cfg, spec, nil
}

// transportConfig maps the node file onto the UDP transport.
func (c *Config) transportConfig() transport.UDPConfig {
	return transport.UDPConfig{Node: c.Node, Listen: c.Listen, Peers: c.Peers}
}
