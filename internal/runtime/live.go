package runtime

import (
	"fmt"

	"drsnet/internal/clock"
	"drsnet/internal/core"
	"drsnet/internal/routing"
	"drsnet/internal/transport"
)

// liveCarrier is the carrier oracle handed to routers assembled
// outside the simulator. Real transports (UDP, in-memory) expose no
// physical-layer loss-of-signal, so carrier always reads up; the
// static fast-failover family consequently degrades to its primary
// path when run live, while probe-based protocols (DRS, the
// baselines) are unaffected — they never consult the oracle.
type liveCarrier struct{}

// CarrierUp implements failover.Sensor.
func (liveCarrier) CarrierUp(peer, rail int) bool { return true }

// BuildNode assembles one node's router outside the simulator. The
// live daemon (cmd/drsd) and the hermetic multi-daemon tests hand it
// a real transport and clock and get back the same registry-built
// router the simulator would construct from the spec — one code path
// for protocol assembly, whatever the seams underneath.
//
// incarnation and restore drive the crash–restart lifecycle exactly
// as the simulator's Crash/Restart do: a first boot passes (0, nil)
// — or (1, nil) with the lifecycle enabled — and a warm restart
// passes the previous life's checkpoint with a strictly newer
// incarnation.
//
// Only dual-rail cluster shapes are supported: switched fabrics have
// no per-node transport of this form.
func BuildNode(spec ClusterSpec, node int, tr transport.Transport, clk clock.Clock,
	incarnation uint32, restore *core.Checkpoint) (routing.Router, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	if spec.fabric != nil {
		return nil, fmt.Errorf("runtime: live node assembly supports dual-rail clusters only, not %q fabrics", spec.Topology.Kind)
	}
	if tr == nil || clk == nil {
		return nil, fmt.Errorf("runtime: nil transport or clock")
	}
	if node < 0 || node >= spec.Nodes {
		return nil, fmt.Errorf("runtime: node %d out of range [0,%d)", node, spec.Nodes)
	}
	if tr.Node() != node || tr.Nodes() != spec.Nodes || tr.Rails() != spec.Rails {
		return nil, fmt.Errorf("runtime: transport shape node %d of %d×%d does not match spec node %d of %d×%d",
			tr.Node(), tr.Nodes(), tr.Rails(), node, spec.Nodes, spec.Rails)
	}
	builder, err := Lookup(spec.Protocol)
	if err != nil {
		return nil, err
	}
	ctx := BuildContext{
		Node:        node,
		Transport:   tr,
		Clock:       clk,
		Spec:        &spec,
		Carrier:     liveCarrier{},
		Incarnation: incarnation,
		Restore:     restore,
	}
	r, err := builder(ctx)
	if err != nil {
		return nil, fmt.Errorf("runtime: building %s router for node %d: %v", spec.Protocol, node, err)
	}
	return r, nil
}
