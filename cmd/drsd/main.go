// Command drsd runs one node of a DRS cluster for real: the same
// protocol stack the simulator exercises — linkmon probe rounds with
// adaptive RTO, route table, dataplane, membership, flap damping —
// assembled over a wall clock and UDP sockets instead of the
// simulator's virtual clock and netsim. The cluster's shape, protocol
// and tunables come from the exact ClusterSpec scenario JSON cmd/drsim
// executes; a small per-node config adds the socket addresses and the
// persistence paths.
//
// Lifecycle:
//
//	boot     — if a checkpoint file exists, the daemon warm-starts the
//	           next incarnation from it (incarnation-guarded, exactly
//	           like the simulator's warm restarts); otherwise it cold
//	           boots incarnation 1.
//	run      — periodic checkpoints and status snapshots; optional
//	           HTTP /status and /metrics.
//	SIGHUP   — graceful reload: re-read the config, and if it is
//	           valid, hand the current routes to the next incarnation
//	           in-process (an invalid config is logged and ignored).
//	SIGTERM  — drain: write a final checkpoint, stop the daemon, exit
//	           0. Nothing is announced (membership is the configured
//	           host list, as in the deployed DRS): peers detect the
//	           silence by probe misses, as after a kill -9. SIGINT
//	           behaves the same.
//	kill -9  — nothing graceful happens, which is the point: the next
//	           boot warm-starts from the last periodic checkpoint and
//	           rejoins under a newer incarnation.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"drsnet/internal/clock"
	"drsnet/internal/core"
	"drsnet/internal/routing"
	"drsnet/internal/runtime"
	"drsnet/internal/transport"
)

func main() {
	configPath := flag.String("config", "", "node config file (JSON)")
	validate := flag.Bool("validate", false, "parse and validate the config, then exit")
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("drsd ")
	if *configPath == "" {
		fmt.Fprintln(os.Stderr, "drsd: -config is required")
		os.Exit(2)
	}
	if *validate {
		cfg, spec, err := loadConfig(*configPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("config ok: node %d of %d-node %d-rail cluster, protocol %s\n",
			cfg.Node, spec.Nodes, spec.Rails, spec.Protocol)
		return
	}
	if err := runDaemon(*configPath); err != nil {
		log.Fatal(err)
	}
}

// instance is one life of the daemon: router, transport, clock and
// the periodic reporters, torn down together on reload or exit.
type instance struct {
	cfg    *Config
	spec   runtime.ClusterSpec
	inc    uint32
	router routing.Router
	tr     *transport.UDP
	clk    *clock.Wall
	stopCh chan struct{}
	wg     sync.WaitGroup
}

// start boots one incarnation from the config file.
func start(configPath string, inc uint32, restore *core.Checkpoint) (*instance, error) {
	cfg, spec, err := loadConfig(configPath)
	if err != nil {
		return nil, err
	}
	tr, err := transport.NewUDP(cfg.transportConfig())
	if err != nil {
		return nil, fmt.Errorf("drsd: %v", err)
	}
	clk := clock.NewWall()
	router, err := runtime.BuildNode(spec, cfg.Node, tr, clk, inc, restore)
	if err != nil {
		tr.Close()
		clk.Stop()
		return nil, fmt.Errorf("drsd: %v", err)
	}
	// Socket errors land in the router's metric set, so the status and
	// metrics endpoints report transport.rx_errors / tx_errors beside
	// the protocol counters.
	tr.SetMetrics(router.Metrics())
	if err := router.Start(); err != nil {
		tr.Close()
		clk.Stop()
		return nil, fmt.Errorf("drsd: %v", err)
	}
	inst := &instance{
		cfg: cfg, spec: spec, inc: inc,
		router: router, tr: tr, clk: clk,
		stopCh: make(chan struct{}),
	}
	inst.wg.Add(2)
	go inst.checkpointLoop()
	go inst.statusLoop()
	if cfg.HTTPAddr != "" {
		inst.serveHTTP()
	}
	return inst, nil
}

// stop tears the instance down, on drain and on reload alike: the
// router stops and the node falls silent. Membership is the configured
// host list, so nothing is announced; peers see the silence as probe
// misses.
func (i *instance) stop() {
	close(i.stopCh)
	i.wg.Wait()
	i.router.Stop()
	i.tr.Close()
	i.clk.Stop()
}

// checkpointImage captures the warm-start image, nil when the router
// is not a checkpointing protocol.
func (i *instance) checkpointImage() *core.Checkpoint {
	if d, ok := i.router.(*core.Daemon); ok {
		return d.Checkpoint()
	}
	return nil
}

// persistCheckpoint writes the warm-start image to the configured
// path (atomically: a kill -9 mid-write must never corrupt the last
// good image).
func (i *instance) persistCheckpoint() {
	if i.cfg.Checkpoint == "" {
		return
	}
	cp := i.checkpointImage()
	if cp == nil {
		return
	}
	buf, err := json.Marshal(cp)
	if err != nil {
		log.Printf("checkpoint: %v", err)
		return
	}
	if err := writeFileAtomic(i.cfg.Checkpoint, buf); err != nil {
		log.Printf("checkpoint: %v", err)
	}
}

func (i *instance) checkpointLoop() {
	defer i.wg.Done()
	if i.cfg.Checkpoint == "" {
		return
	}
	t := time.NewTicker(time.Duration(i.cfg.CheckpointEvery))
	defer t.Stop()
	for {
		select {
		case <-t.C:
			i.persistCheckpoint()
		case <-i.stopCh:
			return
		}
	}
}

// nextLife decides the boot incarnation: a readable checkpoint for
// this node warm-starts the life after it; anything else (no file,
// unreadable, wrong node) cold boots incarnation 1.
func nextLife(path string, node int) (uint32, *core.Checkpoint) {
	if path == "" {
		return 1, nil
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		return 1, nil
	}
	var cp core.Checkpoint
	if err := json.Unmarshal(buf, &cp); err != nil || cp.Node != node {
		log.Printf("ignoring checkpoint %s: %v", path, err)
		return 1, nil
	}
	return cp.Incarnation + 1, &cp
}

func runDaemon(configPath string) error {
	cfg, _, err := loadConfig(configPath)
	if err != nil {
		return err
	}
	inc, restore := nextLife(cfg.Checkpoint, cfg.Node)
	inst, err := start(configPath, inc, restore)
	if err != nil && restore != nil {
		// A stale or incompatible image must not keep the daemon down.
		log.Printf("warm start failed (%v); booting cold", err)
		inst, err = start(configPath, inc, nil)
	}
	if err != nil {
		return err
	}
	boot := "cold"
	if restore != nil {
		boot = "warm"
	}
	log.Printf("node %d up: incarnation %d (%s), %d-node %d-rail cluster, protocol %s",
		inst.cfg.Node, inst.inc, boot, inst.spec.Nodes, inst.spec.Rails, inst.spec.Protocol)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGHUP, syscall.SIGTERM, os.Interrupt)
	for sig := range sigc {
		if sig == syscall.SIGHUP {
			// Validate the new config before touching the running stack:
			// a bad reload is rejected, not fatal.
			if _, _, err := loadConfig(configPath); err != nil {
				log.Printf("reload rejected: %v", err)
				continue
			}
			cp := inst.checkpointImage()
			inst.stop()
			next, err := start(configPath, inst.inc+1, cp)
			if err != nil {
				return fmt.Errorf("drsd: reload: %v", err)
			}
			inst = next
			inst.persistCheckpoint()
			log.Printf("reloaded: incarnation %d", inst.inc)
			continue
		}
		// SIGTERM / SIGINT: drain.
		log.Printf("draining on %v", sig)
		inst.persistCheckpoint()
		inst.stop()
		return nil
	}
	return nil
}

// writeFileAtomic writes data via a same-directory temp file and
// rename, so readers (and the next boot) only ever see a complete
// image.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}
