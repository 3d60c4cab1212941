// Package topology models the network shapes the simulations run on.
//
// Two models live here. Cluster is the paper's architecture: N
// servers, each with one network interface card (NIC) per network
// rail, attached to R independent shared networks ("back planes" in
// the paper — non-meshed hubs; the paper fixes R = 2, giving exactly
// 2N + 2 failure-prone components). Fabric generalizes that to any
// switched topology — hosts, switches, and trunk links — with
// builders for the dual-rail cluster, fat-tree(k) and BCube(n,k).
//
// Components are numbered densely so failure scenarios can be stored
// in bitsets. For a Cluster:
//
//	NIC(node i, rail k)  -> i*R + k        (0 ≤ id < N*R)
//	Backplane(rail k)    -> N*R + k        (N*R ≤ id < N*R + R)
//
// A Fabric extends the same scheme (NICs first, then switches, then
// trunks), and FromCluster yields bit-for-bit identical numbering to
// the Cluster it wraps. The dense layout is an internal contract of
// this package: outside it, obtain ids through NIC/Backplane/Switch/
// TrunkComp and decode them with Describe — doing index arithmetic on
// Component values directly is deprecated, since it silently breaks
// on any non-dual-rail fabric.
package topology

import "fmt"

// Component identifies one failure-prone hardware component of a
// cluster or fabric: a NIC, a back plane/switch, or a trunk link.
type Component int

// Kind distinguishes the component classes. Clusters use the paper's
// two (NIC, back plane); fabrics add switches and trunks.
type Kind int

const (
	// KindNIC is a network interface card (one per node per rail).
	KindNIC Kind = iota
	// KindBackplane is a shared network segment (hub/back plane).
	KindBackplane
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindNIC:
		return "nic"
	case KindBackplane:
		return "backplane"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Cluster describes the paper's flat shape: Nodes servers each
// attached to Rails independent shared networks through one NIC per
// rail. It is the special case of Fabric where every "switch" is a
// shared back plane reaching all hosts; FromCluster lifts a Cluster
// into the general model without renumbering its components.
type Cluster struct {
	Nodes int
	Rails int
}

// Dual returns the paper's configuration: n servers, two NICs each,
// two non-meshed back planes.
func Dual(n int) Cluster { return Cluster{Nodes: n, Rails: 2} }

// Validate reports whether the cluster shape is usable.
func (c Cluster) Validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("topology: need at least 2 nodes, have %d", c.Nodes)
	}
	if c.Rails < 1 {
		return fmt.Errorf("topology: need at least 1 rail, have %d", c.Rails)
	}
	return nil
}

// Components returns the size of the failure-component universe:
// Nodes*Rails NICs plus Rails back planes (2N+2 when Rails == 2).
func (c Cluster) Components() int { return c.Nodes*c.Rails + c.Rails }

// NIC returns the component id of node's interface on rail.
func (c Cluster) NIC(node, rail int) Component {
	if node < 0 || node >= c.Nodes || rail < 0 || rail >= c.Rails {
		panic(fmt.Sprintf("topology: NIC(%d,%d) out of range for %d nodes × %d rails",
			node, rail, c.Nodes, c.Rails))
	}
	return Component(node*c.Rails + rail)
}

// Backplane returns the component id of the shared segment for rail.
func (c Cluster) Backplane(rail int) Component {
	if rail < 0 || rail >= c.Rails {
		panic(fmt.Sprintf("topology: Backplane(%d) out of range for %d rails", rail, c.Rails))
	}
	return Component(c.Nodes*c.Rails + rail)
}

// Describe decodes a component id. For a NIC it returns
// (KindNIC, node, rail); for a back plane it returns
// (KindBackplane, -1, rail).
func (c Cluster) Describe(comp Component) (kind Kind, node, rail int) {
	id := int(comp)
	if id < 0 || id >= c.Components() {
		panic(fmt.Sprintf("topology: component %d out of range (universe %d)", id, c.Components()))
	}
	if id < c.Nodes*c.Rails {
		return KindNIC, id / c.Rails, id % c.Rails
	}
	return KindBackplane, -1, id - c.Nodes*c.Rails
}

// Name returns a human-readable component name such as "nic(3,0)" or
// "backplane(1)".
func (c Cluster) Name(comp Component) string {
	kind, node, rail := c.Describe(comp)
	if kind == KindNIC {
		return fmt.Sprintf("nic(%d,%d)", node, rail)
	}
	return fmt.Sprintf("backplane(%d)", rail)
}
