package topology

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Fabric generalizes Cluster from "N servers on R shared back planes"
// to an arbitrary switched fabric: hosts with one or more NICs, a set
// of switches, and links. A link is either a NIC (host ↔ switch, one
// component covering the whole host-side attachment, exactly like the
// paper's NIC on its back plane) or a trunk (switch ↔ switch).
//
// Components are numbered densely, extending the Cluster scheme so the
// paper's dual-rail cluster keeps its exact numbering:
//
//	NIC(host i, port k) -> i*P + k                    (0 ≤ id < H*P)
//	Switch(s)           -> H*P + s                    (H*P ≤ id < H*P + S)
//	Trunk(t)            -> H*P + S + t                (the rest)
//
// where H is the host count, P the per-host port count and S the
// switch count. FromCluster maps a Cluster onto a Fabric whose
// switches are the back planes and whose NICs keep their ids, so code
// that stored dual-rail components in bitsets reads them back
// unchanged. Use the accessors (NIC, Switch, TrunkComp, Describe) —
// dense-id arithmetic outside this package is deprecated.
type Fabric struct {
	// Kind names the family the fabric was built from: "dualRail",
	// "fatTree", "bcube", or a custom label.
	Kind string

	hosts    int
	ports    int
	switches int
	hostSw   []int32 // hostSw[h*ports+p] = switch h's port p attaches to
	trunks   []Trunk

	// Switch-graph adjacency in CSR form, for routing and BFS.
	swOff []int32
	swAdj []int32 // neighbouring switch
	swTrk []int32 // trunk index carrying that adjacency
}

// Trunk is one switch-to-switch link.
type Trunk struct{ A, B int }

// Fabric component kinds, extending the Cluster universe.
const (
	// KindSwitch is a switching element (a back plane generalized).
	KindSwitch Kind = iota + 2
	// KindTrunk is a switch-to-switch link.
	KindTrunk
)

// NewFabric assembles a fabric from explicit wiring: hostSw lists, for
// each host in turn, the switch each of its ports attaches to
// (host-major, port-minor — the dense NIC order); trunks lists the
// switch-to-switch links.
func NewFabric(kind string, hosts, ports, switches int, hostSw []int32, trunks []Trunk) (*Fabric, error) {
	f := &Fabric{Kind: kind, hosts: hosts, ports: ports, switches: switches, hostSw: hostSw, trunks: trunks}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	f.buildAdjacency()
	return f, nil
}

// Validate reports whether the fabric shape is usable.
func (f *Fabric) Validate() error {
	if f.hosts < 2 {
		return fmt.Errorf("topology: fabric needs at least 2 hosts, have %d", f.hosts)
	}
	if f.ports < 1 {
		return fmt.Errorf("topology: fabric needs at least 1 port per host, have %d", f.ports)
	}
	if f.switches < 1 {
		return fmt.Errorf("topology: fabric needs at least 1 switch, have %d", f.switches)
	}
	if len(f.hostSw) != f.hosts*f.ports {
		return fmt.Errorf("topology: fabric wiring lists %d attachments, want %d", len(f.hostSw), f.hosts*f.ports)
	}
	for i, s := range f.hostSw {
		if s < 0 || int(s) >= f.switches {
			return fmt.Errorf("topology: host %d port %d attached to switch %d outside [0,%d)",
				i/f.ports, i%f.ports, s, f.switches)
		}
	}
	for i, t := range f.trunks {
		if t.A < 0 || t.A >= f.switches || t.B < 0 || t.B >= f.switches || t.A == t.B {
			return fmt.Errorf("topology: trunk %d (%d↔%d) invalid for %d switches", i, t.A, t.B, f.switches)
		}
	}
	return nil
}

func (f *Fabric) buildAdjacency() {
	deg := make([]int32, f.switches+1)
	for _, t := range f.trunks {
		deg[t.A+1]++
		deg[t.B+1]++
	}
	for s := 0; s < f.switches; s++ {
		deg[s+1] += deg[s]
	}
	f.swOff = deg
	f.swAdj = make([]int32, 2*len(f.trunks))
	f.swTrk = make([]int32, 2*len(f.trunks))
	fill := make([]int32, f.switches)
	for i, t := range f.trunks {
		a := f.swOff[t.A] + fill[t.A]
		f.swAdj[a], f.swTrk[a] = int32(t.B), int32(i)
		fill[t.A]++
		b := f.swOff[t.B] + fill[t.B]
		f.swAdj[b], f.swTrk[b] = int32(t.A), int32(i)
		fill[t.B]++
	}
	// Deterministic neighbour order: ascending switch id (ties by trunk
	// index), independent of trunk declaration order.
	for s := 0; s < f.switches; s++ {
		lo, hi := f.swOff[s], f.swOff[s+1]
		adj, trk := f.swAdj[lo:hi], f.swTrk[lo:hi]
		sort.Sort(&adjSorter{adj: adj, trk: trk})
	}
}

type adjSorter struct{ adj, trk []int32 }

func (a *adjSorter) Len() int { return len(a.adj) }
func (a *adjSorter) Less(i, j int) bool {
	if a.adj[i] != a.adj[j] {
		return a.adj[i] < a.adj[j]
	}
	return a.trk[i] < a.trk[j]
}
func (a *adjSorter) Swap(i, j int) {
	a.adj[i], a.adj[j] = a.adj[j], a.adj[i]
	a.trk[i], a.trk[j] = a.trk[j], a.trk[i]
}

// Hosts returns the number of hosts (servers).
func (f *Fabric) Hosts() int { return f.hosts }

// Ports returns the number of NICs per host.
func (f *Fabric) Ports() int { return f.ports }

// Switches returns the number of switching elements.
func (f *Fabric) Switches() int { return f.switches }

// Trunks returns the number of switch-to-switch links.
func (f *Fabric) Trunks() int { return len(f.trunks) }

// Trunk returns trunk t's endpoints.
func (f *Fabric) Trunk(t int) Trunk {
	if t < 0 || t >= len(f.trunks) {
		panic(fmt.Sprintf("topology: trunk %d out of range [0,%d)", t, len(f.trunks)))
	}
	return f.trunks[t]
}

// HostSwitch returns the switch host h's port p attaches to.
func (f *Fabric) HostSwitch(h, p int) int {
	if h < 0 || h >= f.hosts || p < 0 || p >= f.ports {
		panic(fmt.Sprintf("topology: HostSwitch(%d,%d) out of range for %d hosts × %d ports", h, p, f.hosts, f.ports))
	}
	return int(f.hostSw[h*f.ports+p])
}

// SwitchNeighbors calls fn for every trunk adjacency of switch s, in
// ascending neighbour order: the neighbouring switch and the trunk
// index connecting them.
func (f *Fabric) SwitchNeighbors(s int, fn func(neighbor, trunk int)) {
	for i := f.swOff[s]; i < f.swOff[s+1]; i++ {
		fn(int(f.swAdj[i]), int(f.swTrk[i]))
	}
}

// Components returns the size of the failure-component universe:
// H*P NICs, S switches, T trunks.
func (f *Fabric) Components() int { return f.hosts*f.ports + f.switches + len(f.trunks) }

// NIC returns the component id of host h's port p attachment.
func (f *Fabric) NIC(h, p int) Component {
	if h < 0 || h >= f.hosts || p < 0 || p >= f.ports {
		panic(fmt.Sprintf("topology: NIC(%d,%d) out of range for %d hosts × %d ports", h, p, f.hosts, f.ports))
	}
	return Component(h*f.ports + p)
}

// Switch returns the component id of switch s.
func (f *Fabric) Switch(s int) Component {
	if s < 0 || s >= f.switches {
		panic(fmt.Sprintf("topology: Switch(%d) out of range for %d switches", s, f.switches))
	}
	return Component(f.hosts*f.ports + s)
}

// TrunkComp returns the component id of trunk t.
func (f *Fabric) TrunkComp(t int) Component {
	if t < 0 || t >= len(f.trunks) {
		panic(fmt.Sprintf("topology: trunk %d out of range [0,%d)", t, len(f.trunks)))
	}
	return Component(f.hosts*f.ports + f.switches + t)
}

// Describe decodes a component id. For a NIC it returns
// (KindNIC, host, port); for a switch (KindSwitch, switch, -1); for a
// trunk (KindTrunk, trunkIndex, -1) — use Trunk for its endpoints.
func (f *Fabric) Describe(comp Component) (kind Kind, a, b int) {
	id := int(comp)
	if id < 0 || id >= f.Components() {
		panic(fmt.Sprintf("topology: component %d out of range (universe %d)", id, f.Components()))
	}
	if id < f.hosts*f.ports {
		return KindNIC, id / f.ports, id % f.ports
	}
	id -= f.hosts * f.ports
	if id < f.switches {
		return KindSwitch, id, -1
	}
	return KindTrunk, id - f.switches, -1
}

// Name returns a human-readable component name such as "nic(3,0)",
// "switch(2)" or "trunk(5:2-7)". Dual-rail fabrics keep the paper's
// "backplane(k)" naming for their switches.
func (f *Fabric) Name(comp Component) string {
	kind, a, _ := f.Describe(comp)
	switch kind {
	case KindNIC:
		return fmt.Sprintf("nic(%d,%d)", a, int(comp)%f.ports)
	case KindSwitch:
		if f.Kind == "dualRail" {
			return fmt.Sprintf("backplane(%d)", a)
		}
		return fmt.Sprintf("switch(%d)", a)
	default:
		t := f.trunks[a]
		return fmt.Sprintf("trunk(%d:%d-%d)", a, t.A, t.B)
	}
}

// FromCluster maps the paper's shared-segment cluster onto the fabric
// model: each back plane becomes one switch, each NIC the host-side
// link to it, no trunks. Component numbering is identical to the
// Cluster's: NIC(i,k) and Backplane(k) keep their dense ids.
func FromCluster(c Cluster) (*Fabric, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	hostSw := make([]int32, c.Nodes*c.Rails)
	for i := 0; i < c.Nodes; i++ {
		for r := 0; r < c.Rails; r++ {
			hostSw[i*c.Rails+r] = int32(r)
		}
	}
	return NewFabric("dualRail", c.Nodes, c.Rails, c.Rails, hostSw, nil)
}

// FatTree builds the canonical k-ary fat-tree (Al-Fares et al., also
// the reference topology of Couto et al.'s survivability comparison):
// k pods, each with k/2 edge and k/2 aggregation switches, (k/2)² core
// switches, and k³/4 single-homed hosts. k must be even and ≥ 2.
//
// Switch numbering: edge switches first (pod-major), then aggregation
// (pod-major), then core. Trunk numbering: edge↔agg (pod-major, edge-
// major), then agg↔core (pod-major, agg-major).
func FatTree(k int) (*Fabric, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topology: fat-tree arity must be even and ≥ 2, have %d", k)
	}
	// The BCube host limit, checked on k before k³/4 can overflow:
	// k = 160 is the largest even arity within 2^20 hosts.
	if k > 160 {
		return nil, fmt.Errorf("topology: fat-tree arity %d above 160 (limit %d hosts)", k, 1<<20)
	}
	half := k / 2
	hosts := k * half * half
	edge := k * half
	agg := k * half
	core := half * half
	switches := edge + agg + core

	hostSw := make([]int32, hosts)
	hpp := half * half // hosts per pod
	for h := 0; h < hosts; h++ {
		pod := h / hpp
		e := (h % hpp) / half
		hostSw[h] = int32(pod*half + e)
	}
	trunks := make([]Trunk, 0, k*half*half*2)
	for pod := 0; pod < k; pod++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				trunks = append(trunks, Trunk{A: pod*half + e, B: edge + pod*half + a})
			}
		}
	}
	for pod := 0; pod < k; pod++ {
		for a := 0; a < half; a++ {
			for c := 0; c < half; c++ {
				trunks = append(trunks, Trunk{A: edge + pod*half + a, B: edge + agg + a*half + c})
			}
		}
	}
	return NewFabric("fatTree", hosts, 1, switches, hostSw, trunks)
}

// BCube builds BCube(n,k) (Guo et al.): n^(k+1) hosts with k+1 ports
// each, (k+1)·n^k switches arranged in k+1 levels, and no switch-to-
// switch links — all multi-hop paths relay through hosts, which is
// why BCube is the server-centric point of Couto et al.'s comparison.
// n is the switch radix (≥ 2); k ≥ 0 is the highest level.
//
// Host h's port ℓ attaches to level-ℓ switch (h/n^(ℓ+1))·n^ℓ + h mod n^ℓ.
func BCube(n, k int) (*Fabric, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: BCube radix must be ≥ 2, have %d", n)
	}
	if k < 0 || k > 10 {
		return nil, fmt.Errorf("topology: BCube level %d outside [0,10]", k)
	}
	hosts := 1
	perLevel := 1
	for i := 0; i <= k; i++ {
		hosts *= n
		if i < k {
			perLevel *= n
		}
	}
	if hosts > 1<<20 {
		return nil, fmt.Errorf("topology: BCube(%d,%d) has %d hosts (limit %d)", n, k, hosts, 1<<20)
	}
	ports := k + 1
	switches := ports * perLevel
	hostSw := make([]int32, hosts*ports)
	for h := 0; h < hosts; h++ {
		stride := 1 // n^ℓ
		for l := 0; l < ports; l++ {
			j := (h/(stride*n))*stride + h%stride
			hostSw[h*ports+l] = int32(l*perLevel + j)
			stride *= n
		}
	}
	return NewFabric("bcube", hosts, ports, switches, hostSw, nil)
}

// Parse builds a fabric from a CLI-style descriptor:
//
//	dualRail:n=12         the paper's cluster (optional rails=R)
//	fatTree:k=8           k-ary fat-tree
//	bcube:n=4,k=1         BCube(n,k)
//
// The kind alone ("fatTree") is rejected — parameters are explicit so
// a scripted sweep never silently runs a default size.
func Parse(desc string) (*Fabric, error) {
	kind, params, _ := strings.Cut(desc, ":")
	kv := map[string]int{}
	if params != "" {
		for _, tok := range strings.Split(params, ",") {
			key, val, ok := strings.Cut(tok, "=")
			if !ok {
				return nil, fmt.Errorf("topology: bad fabric parameter %q (want key=value)", tok)
			}
			v, err := strconv.Atoi(strings.TrimSpace(val))
			if err != nil {
				return nil, fmt.Errorf("topology: bad fabric parameter %q: %v", tok, err)
			}
			kv[strings.TrimSpace(key)] = v
		}
	}
	switch kind {
	case "dualRail":
		n, ok := kv["n"]
		if !ok {
			return nil, fmt.Errorf("topology: dualRail needs n=<hosts> (e.g. dualRail:n=12)")
		}
		rails := 2
		if r, ok := kv["rails"]; ok {
			rails = r
		}
		return FromCluster(Cluster{Nodes: n, Rails: rails})
	case "fatTree":
		k, ok := kv["k"]
		if !ok {
			return nil, fmt.Errorf("topology: fatTree needs k=<arity> (e.g. fatTree:k=8)")
		}
		return FatTree(k)
	case "bcube":
		n, ok := kv["n"]
		if !ok {
			return nil, fmt.Errorf("topology: bcube needs n=<radix> (e.g. bcube:n=4,k=1)")
		}
		k := kv["k"]
		return BCube(n, k)
	default:
		return nil, fmt.Errorf("topology: unknown fabric kind %q (want dualRail, fatTree or bcube)", kind)
	}
}
