package netsim

import "fmt"

// AllRails, as a Partition/Heal rail argument, addresses every rail of
// the pair at once — the classic full network partition. A concrete
// rail index partitions only that segment's path between the pair,
// which is how a misprogrammed switch filter or a poisoned ARP entry
// behaves: one rail is severed while the other still carries frames.
const AllRails = -1

// partKey names one blocked directed path: frames from src to dst on
// rail vanish at delivery. Keys always carry a concrete rail;
// AllRails is expanded when the partition is installed.
type partKey struct{ src, dst, rail int }

// Partition blocks delivery of frames from src to dst on rail
// (AllRails = every rail), from this instant until Heal. Partitions
// are directed: blocking src→dst alone is the asymmetric gray failure
// — dst goes deaf to src while src still hears dst. Install both
// directions for a symmetric partition. Frames already in flight when
// the partition lands are eaten at delivery time, exactly like frames
// into a failed NIC.
//
// A partition is a logical fault in the switching fabric, not an
// electrical one: CarrierUp still reports the path healthy (link
// lights stay on), ComponentUp is untouched, and only delivery — and
// the Reachable ground-truth oracle — see the cut. Installing the
// same directed path twice is idempotent.
func (n *Network) Partition(src, dst, rail int) {
	n.checkNode(src)
	n.checkNode(dst)
	if src == dst {
		panic(fmt.Sprintf("netsim: partitioning node %d from itself", src))
	}
	n.checkPartRail(rail)
	if n.part == nil {
		n.part = make(map[partKey]struct{})
	}
	for _, r := range n.partRails(rail) {
		n.part[partKey{src, dst, r}] = struct{}{}
	}
}

// Heal removes the directed src→dst block on rail (AllRails = every
// rail). Healing a path that was never partitioned is a no-op.
func (n *Network) Heal(src, dst, rail int) {
	n.checkNode(src)
	n.checkNode(dst)
	n.checkPartRail(rail)
	if n.part == nil {
		return
	}
	for _, r := range n.partRails(rail) {
		delete(n.part, partKey{src, dst, r})
	}
	if len(n.part) == 0 {
		n.part = nil
	}
}

// partitioned is the delivery-path check: nil map short-circuits so
// partition-free runs stay byte-identical to their pre-partition
// goldens.
func (n *Network) partitioned(src, dst, rail int) bool {
	if n.part == nil {
		return false
	}
	_, ok := n.part[partKey{src, dst, rail}]
	return ok
}

// partRails expands a rail argument into concrete rail indices.
func (n *Network) partRails(rail int) []int {
	if rail != AllRails {
		return []int{rail}
	}
	rails := make([]int, n.cluster.Rails)
	for r := range rails {
		rails[r] = r
	}
	return rails
}

func (n *Network) checkPartRail(rail int) {
	if rail != AllRails && (rail < 0 || rail >= n.cluster.Rails) {
		panic(fmt.Sprintf("netsim: rail %d out of range [0,%d)", rail, n.cluster.Rails))
	}
}
