package conn

import (
	"fmt"

	"drsnet/internal/topology"
)

// FabricEvaluator answers connectivity queries on a general switched
// fabric, where the dual-rail closed form does not apply. The graph
// has one vertex per host and per switch; a NIC gates the host↔switch
// edge it names, a trunk gates its switch↔switch edge, and a failed
// switch blocks its vertex entirely. Hosts may relay (a path may pass
// through intermediate host vertices), matching the dual-rail
// Evaluator's semantics — and what a correctly functioning DRS or
// BCube-style server-centric fabric provides.
//
// FabricEvaluator is the hot path of fabric Monte Carlo runs: queries
// allocate nothing when given a caller-owned Scratch (one per worker;
// a Scratch must not be shared between goroutines).
type FabricEvaluator struct {
	f     *topology.Fabric
	verts int // hosts then switches
	hosts int32
	// swComp maps a switch vertex to its component: switch ids are
	// contiguous, so vertex v ≥ hosts is component v + swComp.
	swComp int32

	// CSR adjacency: for vertex v, edges are adj/edgeComp in
	// [off[v], off[v+1]) — the neighbouring vertex and the component id
	// whose failure severs the edge.
	off      []int32
	adj      []int32
	edgeComp []int32
}

// FabricScratch is the reusable per-worker query state.
type FabricScratch struct {
	failed  []bool  // indexed by component id; set and cleared per query
	visited []int32 // epoch marks per vertex
	epoch   int32
	// BFS queues, each preallocated to hold every vertex; the pair
	// search runs one per side.
	queue, queueB []int32
}

// NewFabricEvaluator builds an evaluator for the fabric.
func NewFabricEvaluator(f *topology.Fabric) (*FabricEvaluator, error) {
	if f == nil {
		return nil, fmt.Errorf("conn: nil fabric")
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	hosts, ports, switches := f.Hosts(), f.Ports(), f.Switches()
	verts := hosts + switches
	edges := hosts*ports + f.Trunks()

	deg := make([]int32, verts+1)
	for h := 0; h < hosts; h++ {
		for p := 0; p < ports; p++ {
			deg[h+1]++
			deg[hosts+f.HostSwitch(h, p)+1]++
		}
	}
	for t := 0; t < f.Trunks(); t++ {
		tr := f.Trunk(t)
		deg[hosts+tr.A+1]++
		deg[hosts+tr.B+1]++
	}
	for v := 0; v < verts; v++ {
		deg[v+1] += deg[v]
	}
	e := &FabricEvaluator{
		f:        f,
		verts:    verts,
		hosts:    int32(hosts),
		swComp:   int32(f.Switch(0)) - int32(hosts),
		off:      deg,
		adj:      make([]int32, 2*edges),
		edgeComp: make([]int32, 2*edges),
	}
	fill := make([]int32, verts)
	add := func(u, v int, comp topology.Component) {
		i := e.off[u] + fill[u]
		e.adj[i], e.edgeComp[i] = int32(v), int32(comp)
		fill[u]++
	}
	for h := 0; h < hosts; h++ {
		for p := 0; p < ports; p++ {
			s := hosts + f.HostSwitch(h, p)
			c := f.NIC(h, p)
			add(h, s, c)
			add(s, h, c)
		}
	}
	for t := 0; t < f.Trunks(); t++ {
		tr := f.Trunk(t)
		c := f.TrunkComp(t)
		add(hosts+tr.A, hosts+tr.B, c)
		add(hosts+tr.B, hosts+tr.A, c)
	}
	return e, nil
}

// NewScratch returns fresh per-worker query state.
func (e *FabricEvaluator) NewScratch() *FabricScratch {
	return &FabricScratch{
		failed:  make([]bool, e.f.Components()),
		visited: make([]int32, e.verts),
		queue:   make([]int32, 0, e.verts),
		queueB:  make([]int32, 0, e.verts),
	}
}

// mark installs the failure scenario into the scratch; the caller must
// unmark with the same slice before returning.
func (sc *FabricScratch) mark(failed []topology.Component) {
	for _, c := range failed {
		sc.failed[c] = true
	}
}

func (sc *FabricScratch) unmark(failed []topology.Component) {
	for _, c := range failed {
		sc.failed[c] = false
	}
}

// newMarks reserves k ≤ 2 fresh visit marks and returns the first. On
// epoch wrap it clears every mark so stale epochs can't alias.
func (sc *FabricScratch) newMarks(k int32) int32 {
	if sc.epoch >= 1<<31-2 {
		clear(sc.visited)
		sc.epoch = 0
	}
	first := sc.epoch + 1
	sc.epoch += k
	return first
}

// bfs runs a breadth-first search from host a over usable edges and
// visits its whole component, leaving the query's marks (sc.epoch) in
// sc.visited.
func (e *FabricEvaluator) bfs(sc *FabricScratch, a int) {
	mark := sc.newMarks(1)
	off, adj, comp := e.off, e.adj, e.edgeComp
	visited, failed := sc.visited, sc.failed
	visited[a] = mark
	// The queue holds every vertex, so the appends never reallocate.
	queue := append(sc.queue[:0], int32(a))
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for i := off[u]; i < off[u+1]; i++ {
			if failed[comp[i]] {
				continue
			}
			v := adj[i]
			if visited[v] == mark || v >= e.hosts && failed[v+e.swComp] {
				continue
			}
			visited[v] = mark
			queue = append(queue, v)
		}
	}
}

// meet reports whether hosts a ≠ b can communicate, by a two-ended
// level-synchronous search: each side has its own mark and queue, each
// step expands the whole current level of the side whose level is
// smaller, and the search succeeds when an edge reaches a vertex
// carrying the other side's mark. It fails when a side's next level
// comes up empty. Every usable edge is usable both ways, so the answer
// is bfs's, at the cost of two small balls instead of one large one.
func (e *FabricEvaluator) meet(sc *FabricScratch, a, b int) bool {
	mine := sc.newMarks(2)
	other := mine + 1
	off, adj, comp := e.off, e.adj, e.edgeComp
	visited, failed := sc.visited, sc.failed
	visited[a], visited[b] = mine, other
	// Both queues hold every vertex, so the appends never reallocate.
	q, qo := append(sc.queue[:0], int32(a)), append(sc.queueB[:0], int32(b))
	lo, loO := 0, 0 // the sides' current levels are q[lo:] and qo[loO:]
	for {
		if len(q)-lo > len(qo)-loO {
			q, qo, lo, loO, mine, other = qo, q, loO, lo, other, mine
		}
		end := len(q)
		for _, u := range q[lo:end] {
			for i := off[u]; i < off[u+1]; i++ {
				if failed[comp[i]] {
					continue
				}
				v := adj[i]
				switch visited[v] {
				case mine:
					continue
				case other:
					return true
				}
				if v >= e.hosts && failed[v+e.swComp] {
					continue
				}
				visited[v] = mine
				q = append(q, v)
			}
		}
		if len(q) == end {
			return false
		}
		lo = end
	}
}

// PairConnected reports whether hosts a and b can communicate under
// the failure scenario. sc may be nil (a throwaway scratch is
// allocated); pass a per-worker scratch on hot paths.
func (e *FabricEvaluator) PairConnected(sc *FabricScratch, failed []topology.Component, a, b int) bool {
	e.checkHost(a)
	e.checkHost(b)
	if a == b {
		return true
	}
	if sc == nil {
		sc = e.NewScratch()
	}
	sc.mark(failed)
	ok := e.meet(sc, a, b)
	sc.unmark(failed)
	return ok
}

// AllConnected reports whether every pair of hosts can communicate —
// the fabric analogue of the dual-rail evaluator's AllConnected.
func (e *FabricEvaluator) AllConnected(sc *FabricScratch, failed []topology.Component) bool {
	if sc == nil {
		sc = e.NewScratch()
	}
	sc.mark(failed)
	e.bfs(sc, 0)
	ok := true
	for h := 0; h < e.f.Hosts(); h++ {
		if sc.visited[h] != sc.epoch {
			ok = false
			break
		}
	}
	sc.unmark(failed)
	return ok
}

func (e *FabricEvaluator) checkHost(h int) {
	if h < 0 || h >= e.f.Hosts() {
		panic(fmt.Sprintf("conn: host %d out of range [0,%d)", h, e.f.Hosts()))
	}
}
