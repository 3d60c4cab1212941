// Package conn evaluates cluster connectivity under a failure
// scenario. It answers the question at the heart of the paper's
// survivability model: given a set of failed components (NICs and back
// planes), can two servers still communicate when routing is allowed
// to relay through intermediate servers?
//
// Semantics: node i is attached to rail k iff both nic(i,k) and
// backplane(k) are operational. Two nodes can communicate iff they lie
// in the same connected component of the node–rail incidence graph —
// exactly the reachability a correctly functioning DRS provides (the
// DRS relays application traffic through any server that can reach
// both ends).
//
// The evaluator is the hot path of the Monte Carlo simulation, so the
// core entry points take failure scenarios as small component slices
// and allocate nothing.
package conn

import (
	"fmt"

	"drsnet/internal/topology"
)

// Evaluator answers connectivity queries for one cluster shape.
// It is safe for concurrent use: all per-query state lives on the
// stack or in caller-provided scratch.
type Evaluator struct {
	c topology.Cluster
}

// NewEvaluator returns an Evaluator for the given cluster shape.
// Rails must be ≤ 64 (rail sets are held in a uint64 mask).
func NewEvaluator(c topology.Cluster) (*Evaluator, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.Rails > 64 {
		return nil, fmt.Errorf("conn: at most 64 rails supported, have %d", c.Rails)
	}
	return &Evaluator{c: c}, nil
}

// maxTrackedNodes bounds the scratch used to track nodes that have at
// least one failed NIC; failure scenarios larger than this fall back
// to the general path. The paper's experiments use f ≤ 10.
const maxTrackedNodes = 32

// affected records, for one node, the bitmask of rails whose NIC on
// that node has failed.
type affected struct {
	node int
	mask uint64
}

// scenario is the decoded form of a failure list.
type scenario struct {
	aliveRails uint64 // rails whose backplane is up
	aff        [maxTrackedNodes]affected
	nAff       int
	overflow   bool // more distinct affected nodes than we track
}

func (e *Evaluator) decode(failed []topology.Component) scenario {
	var s scenario
	s.aliveRails = railMaskAll(e.c.Rails)
	for _, comp := range failed {
		kind, node, rail := e.c.Describe(comp)
		if kind == topology.KindBackplane {
			s.aliveRails &^= 1 << uint(rail)
			continue
		}
		idx := -1
		for i := 0; i < s.nAff; i++ {
			if s.aff[i].node == node {
				idx = i
				break
			}
		}
		if idx < 0 {
			if s.nAff == maxTrackedNodes {
				s.overflow = true
				continue
			}
			idx = s.nAff
			s.aff[idx] = affected{node: node}
			s.nAff++
		}
		s.aff[idx].mask |= 1 << uint(rail)
	}
	return s
}

func railMaskAll(r int) uint64 {
	if r == 64 {
		return ^uint64(0)
	}
	return (1 << uint(r)) - 1
}

// nodeMask returns the alive-rail attachment mask of node under s.
func (s *scenario) nodeMask(node int) uint64 {
	m := s.aliveRails
	for i := 0; i < s.nAff; i++ {
		if s.aff[i].node == node {
			m &^= s.aff[i].mask
			break
		}
	}
	return m
}

// PairConnected reports whether nodes a and b can communicate under
// the failure scenario given as a component slice. Components may
// repeat; repeats are harmless.
func (e *Evaluator) PairConnected(failed []topology.Component, a, b int) bool {
	if a == b {
		return true
	}
	e.checkNode(a)
	e.checkNode(b)
	if len(failed) > maxTrackedNodes {
		return e.pairConnectedGeneral(failed, a, b)
	}
	s := e.decode(failed)
	if s.overflow {
		return e.pairConnectedGeneral(failed, a, b)
	}
	maskA := s.nodeMask(a)
	maskB := s.nodeMask(b)
	if maskA == 0 || maskB == 0 {
		return false
	}
	// Direct: the pair shares a live rail.
	if maskA&maskB != 0 {
		return true
	}
	// Relay: any node with no failed NIC is attached to every alive
	// rail, so a single healthy third server bridges all rails.
	othersAffected := 0
	for i := 0; i < s.nAff; i++ {
		if n := s.aff[i].node; n != a && n != b {
			othersAffected++
		}
	}
	if e.c.Nodes-2 > othersAffected {
		return true
	}
	// Every other node has at least one failed NIC: run the rail-set
	// closure over the few affected nodes (plus the endpoints, whose
	// own multi-rail attachment can also bridge rails).
	reached := maskA
	for {
		prev := reached
		for i := 0; i < s.nAff; i++ {
			if m := s.aliveRails &^ s.aff[i].mask; m&reached != 0 {
				reached |= m
			}
		}
		// Endpoints as bridges.
		if maskA&reached != 0 {
			reached |= maskA
		}
		if maskB&reached != 0 {
			reached |= maskB
		}
		if reached == prev {
			break
		}
	}
	return reached&maskB != 0
}

// pairConnectedGeneral handles arbitrarily large failure scenarios by
// materializing every node's mask. O(Nodes · len(failed)) worst case,
// used only off the hot path.
func (e *Evaluator) pairConnectedGeneral(failed []topology.Component, a, b int) bool {
	masks := e.allMasks(failed)
	if masks[a] == 0 || masks[b] == 0 {
		return false
	}
	if masks[a]&masks[b] != 0 {
		return true
	}
	reached := masks[a]
	for {
		prev := reached
		for _, m := range masks {
			if m&reached != 0 {
				reached |= m
			}
		}
		if reached == prev {
			break
		}
	}
	return reached&masks[b] != 0
}

// allMasks computes every node's alive-rail attachment mask.
func (e *Evaluator) allMasks(failed []topology.Component) []uint64 {
	alive := railMaskAll(e.c.Rails)
	nicDown := make([]uint64, e.c.Nodes)
	for _, comp := range failed {
		kind, node, rail := e.c.Describe(comp)
		if kind == topology.KindBackplane {
			alive &^= 1 << uint(rail)
		} else {
			nicDown[node] |= 1 << uint(rail)
		}
	}
	masks := make([]uint64, e.c.Nodes)
	for i := range masks {
		masks[i] = alive &^ nicDown[i]
	}
	return masks
}

// AllConnected reports whether every pair of nodes can communicate
// under the failure scenario — i.e. the cluster is fully survivable.
func (e *Evaluator) AllConnected(failed []topology.Component) bool {
	masks := e.allMasks(failed)
	for _, m := range masks {
		if m == 0 {
			return false
		}
	}
	reached := masks[0]
	for {
		prev := reached
		for _, m := range masks {
			if m&reached != 0 {
				reached |= m
			}
		}
		if reached == prev {
			break
		}
	}
	for _, m := range masks {
		if m&reached == 0 {
			return false
		}
	}
	return true
}

func (e *Evaluator) checkNode(n int) {
	if n < 0 || n >= e.c.Nodes {
		panic(fmt.Sprintf("conn: node %d out of range [0,%d)", n, e.c.Nodes))
	}
}
