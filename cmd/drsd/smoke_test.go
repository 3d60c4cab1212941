package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDaemonSmoke is the acceptance demo as a test: build drsd, spawn
// a 3-process cluster on loopback, watch it converge, SIGHUP one
// daemon (graceful reload), kill -9 another, watch the survivors
// drop its routes, warm-restart it from its checkpoint, and watch the
// incarnation-guarded rejoin land in everyone's route tables. Skipped
// under -short (make race stays fast); `make daemon-smoke` runs it in
// CI with a bounded timeout.
func TestDaemonSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real processes; skipped in -short")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()

	const nodes, rails = 3, 2
	addrs := make([][]string, nodes)
	for n := range addrs {
		addrs[n] = freeUDPAddrs(t, rails)
	}
	peers, _ := json.Marshal(addrs)

	clusterPath := filepath.Join(dir, "cluster.json")
	writeSmoke(t, clusterPath, `{
  "nodes": 3,
  "protocol": "drs",
  "duration": "30s",
  "probeInterval": "50ms",
  "missThreshold": 2,
  "traffic": [{"from": 0, "to": 1, "interval": "500ms"}]
}`)
	cfgPath := make([]string, nodes)
	statusPath := make([]string, nodes)
	for n := 0; n < nodes; n++ {
		listen, _ := json.Marshal(addrs[n])
		cfgPath[n] = filepath.Join(dir, fmt.Sprintf("node%d.json", n))
		statusPath[n] = filepath.Join(dir, fmt.Sprintf("node%d.status", n))
		writeSmoke(t, cfgPath[n], fmt.Sprintf(`{
  "node": %d,
  "cluster": "cluster.json",
  "listen": %s,
  "peers": %s,
  "checkpoint": "node%d.ckpt",
  "checkpointEvery": "100ms",
  "status": "node%d.status",
  "statusEvery": "100ms"
}`, n, listen, peers, n, n))
	}

	// The -validate mode must accept what we are about to run.
	out, err := exec.Command(bin, "-config", cfgPath[0], "-validate").CombinedOutput()
	if err != nil || !strings.HasPrefix(string(out), "config ok:") {
		t.Fatalf("-validate: %v\n%s", err, out)
	}

	procs := make([]*exec.Cmd, nodes)
	for n := 0; n < nodes; n++ {
		procs[n] = spawnDaemon(t, bin, cfgPath[n], dir, n)
	}
	defer func() {
		for _, p := range procs {
			if p != nil && p.Process != nil {
				p.Process.Kill()
				p.Wait()
			}
		}
	}()

	// Phase 1: convergence — every daemon sees both peers direct with a
	// round trip measured on every path. The higher id of a pair only
	// answers once it hears the lower id's requests, so its replies
	// counter may stay near zero; the RTT those requests carry is what
	// proves completed exchanges at that end.
	for n := 0; n < nodes; n++ {
		waitStatus(t, statusPath[n], "converge", func(s smokeStatus) bool {
			if _, ok := s.Counters["transport.rx_errors"]; !ok {
				return false // socket counters must ride in the status report
			}
			if _, ok := s.Counters["transport.tx_errors"]; !ok {
				return false
			}
			return s.allDirect(nodes) && s.allMeasured()
		})
	}

	// Phase 2: graceful reload — SIGHUP node 0, which hands its routes
	// to incarnation 2 in-process; the cluster must stay converged.
	if err := procs[0].Process.Signal(syscall.SIGHUP); err != nil {
		t.Fatal(err)
	}
	waitStatus(t, statusPath[0], "reload", func(s smokeStatus) bool {
		return s.Incarnation == 2 && s.allDirect(nodes)
	})

	// Phase 3: kill -9 node 2; the survivors must mark every rail to
	// it down and demote the direct route. (A stale relay entry may
	// linger — the protocol only withdraws relays when the relay
	// itself dies or the target rejoins — so "not direct" is the
	// faithful crash-detection signal.)
	if err := procs[2].Process.Kill(); err != nil {
		t.Fatal(err)
	}
	procs[2].Wait()
	for _, n := range []int{0, 1} {
		waitStatus(t, statusPath[n], "detect crash", func(s smokeStatus) bool {
			return s.route(2) != "direct" && s.railsDown(2)
		})
	}

	// Phase 4: warm restart — the new process finds the checkpoint,
	// boots incarnation 2 and rejoins; the survivors' route tables
	// heal back to direct and record the new incarnation.
	procs[2] = spawnDaemon(t, bin, cfgPath[2], dir, 2)
	waitStatus(t, statusPath[2], "warm restart", func(s smokeStatus) bool {
		return s.Incarnation == 2 && s.allDirect(nodes)
	})
	for _, n := range []int{0, 1} {
		waitStatus(t, statusPath[n], "rejoin", func(s smokeStatus) bool {
			return s.route(2) == "direct" && s.peerIncarnation(2) == 2
		})
	}

	// Phase 5: drain — SIGTERM everyone; each must exit 0.
	for n := 0; n < nodes; n++ {
		if err := procs[n].Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < nodes; n++ {
		if err := waitExit(procs[n], 10*time.Second); err != nil {
			t.Fatalf("node %d drain: %v\n%s", n, err, daemonLog(dir, n))
		}
		procs[n] = nil
	}
}

// smokeStatus is the slice of statusReport the smoke assertions read.
type smokeStatus struct {
	Node        int              `json:"node"`
	Incarnation uint32           `json:"incarnation"`
	Counters    map[string]int64 `json:"counters"`
	Peers       []struct {
		Peer        int    `json:"peer"`
		Route       string `json:"route"`
		Incarnation uint32 `json:"incarnation"`
		Rails       []struct {
			Up   bool          `json:"up"`
			SRTT time.Duration `json:"srtt"`
		} `json:"rails"`
	} `json:"peers"`
}

func (s smokeStatus) route(peer int) string {
	for _, p := range s.Peers {
		if p.Peer == peer {
			return p.Route
		}
	}
	return ""
}

func (s smokeStatus) peerIncarnation(peer int) uint32 {
	for _, p := range s.Peers {
		if p.Peer == peer {
			return p.Incarnation
		}
	}
	return 0
}

func (s smokeStatus) railsDown(peer int) bool {
	for _, p := range s.Peers {
		if p.Peer != peer {
			continue
		}
		for _, r := range p.Rails {
			if r.Up {
				return false
			}
		}
		return len(p.Rails) > 0
	}
	return false
}

func (s smokeStatus) allDirect(nodes int) bool {
	if len(s.Peers) != nodes-1 {
		return false
	}
	for _, p := range s.Peers {
		if p.Route != "direct" {
			return false
		}
	}
	return true
}

// allMeasured reports whether every monitored path has an RTT estimate.
func (s smokeStatus) allMeasured() bool {
	for _, p := range s.Peers {
		for _, r := range p.Rails {
			if r.SRTT <= 0 {
				return false
			}
		}
	}
	return true
}

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "drsd")
	out, err := exec.Command("go", "build", "-o", bin, "drsnet/cmd/drsd").CombinedOutput()
	if err != nil {
		t.Fatalf("building drsd: %v\n%s", err, out)
	}
	return bin
}

func freeUDPAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = conn.LocalAddr().String()
		conn.Close()
	}
	return addrs
}

func writeSmoke(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func spawnDaemon(t *testing.T, bin, cfg, dir string, node int) *exec.Cmd {
	t.Helper()
	logf, err := os.OpenFile(filepath.Join(dir, fmt.Sprintf("node%d.log", node)),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-config", cfg)
	cmd.Dir = dir // checkpoint/status paths in the configs are relative
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	logf.Close() // the child holds its own descriptor
	return cmd
}

func daemonLog(dir string, node int) string {
	buf, _ := os.ReadFile(filepath.Join(dir, fmt.Sprintf("node%d.log", node)))
	return string(buf)
}

// waitStatus polls a status file until cond holds, failing after a
// bounded timeout with the last snapshot for diagnosis.
func waitStatus(t *testing.T, path, what string, cond func(smokeStatus) bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	var last []byte
	for time.Now().Before(deadline) {
		buf, err := os.ReadFile(path)
		if err == nil && len(buf) > 0 {
			last = buf
			var s smokeStatus
			if json.Unmarshal(buf, &s) == nil && cond(s) {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s on %s; last status: %s", what, path, last)
}

func waitExit(cmd *exec.Cmd, timeout time.Duration) error {
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(timeout):
		cmd.Process.Kill()
		return fmt.Errorf("did not exit within %v", timeout)
	}
}
