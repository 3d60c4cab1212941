package netsim

// Transport adapts one node of a Net to the transport.Transport
// interface (which it satisfies structurally; runtime holds the
// assertion), so protocol daemons run unmodified inside the simulator.
type Transport struct {
	net  Net
	node int
	recv func(rail, src int, payload []byte)
}

// NewTransport attaches a transport to node in net. It installs itself
// as the node's handler.
func NewTransport(net Net, node int) *Transport {
	t := &Transport{net: net, node: node}
	net.SetHandler(node, func(fr Frame) {
		if t.recv != nil {
			t.recv(fr.Rail, fr.Src, fr.Payload)
		}
	})
	return t
}

// Node returns the local node index.
func (t *Transport) Node() int { return t.node }

// Nodes returns the cluster size.
func (t *Transport) Nodes() int { return t.net.Nodes() }

// Rails returns the number of independent networks.
func (t *Transport) Rails() int { return t.net.Rails() }

// Send transmits payload on rail to dst, or to every node when dst is
// Broadcast (the same -1 as transport.Broadcast).
func (t *Transport) Send(rail, dst int, payload []byte) error {
	return t.net.Send(t.node, rail, dst, payload)
}

// SetReceiver installs the frame callback.
func (t *Transport) SetReceiver(fn func(rail, src int, payload []byte)) { t.recv = fn }
