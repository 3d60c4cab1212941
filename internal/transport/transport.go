// Package transport defines the node-to-network seam every protocol
// layer in this repository runs behind: a Transport is a node's view
// of its cluster fabric — one NIC per rail, addressed by node index.
// Two implementations live here, and the simulator supplies a third
// from its own side (netsim.Transport, one node of a deterministic
// netsim network), so this package imports no simulator:
//
//   - Mem: an in-memory cluster where delivery is deferred through a
//     clock.Clock — hermetic multi-daemon tests with no sockets, and
//     fully deterministic under a drained clock.
//   - UDP: real UDP sockets between processes, framing payloads with
//     a small validated header. The live daemon (cmd/drsd) path.
//
// Protocol code written against Transport runs unmodified over all
// three. Real transports deliver short, truncated, or hostile
// datagrams: every wire codec downstream must bounds-check (see
// internal/routing/wire), and implementations here must validate
// rail and source indices before handing frames up.
package transport

// Broadcast is the destination meaning "every node on the rail".
const Broadcast = -1

// Transport is a node's interface to its network: one NIC per rail,
// addressed by node index.
type Transport interface {
	// Node returns the local node index.
	Node() int
	// Nodes returns the cluster size.
	Nodes() int
	// Rails returns the number of independent networks.
	Rails() int
	// Send transmits payload on rail to dst (or Broadcast). Send never
	// blocks; delivery is best-effort, like the hardware it models.
	// Callers may reuse the payload buffer after Send returns:
	// implementations that defer delivery must copy. Send must not
	// call any receiver before it returns: callers may hold their own
	// lock across it, and an inline reply would re-enter that lock.
	Send(rail, dst int, payload []byte) error
	// SetReceiver installs the frame callback. The callback may be
	// invoked concurrently by real transports; simulator transports
	// invoke it single-threaded. payload is the transport's buffer:
	// the callback may read it only until it returns, must not write
	// to it, and copies whatever it keeps — the receive-side half of
	// the rule that lets Send's caller reuse its own.
	SetReceiver(fn func(rail, src int, payload []byte))
}
