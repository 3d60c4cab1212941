package netsim

import (
	"fmt"
	"time"

	"drsnet/internal/rng"
	"drsnet/internal/simtime"
	"drsnet/internal/topology"
)

// state is the fault-state plane both engines embed: everything about
// the simulated hardware that is neither timing nor forwarding. It
// owns the component up/down bits, the per-node process bits, the
// handlers and tap, the loss and impairment random streams and the
// impairment map, and it implements the 18 Net methods that read or
// write only those — so Network and FabricNet answer them identically
// by construction. What stays with each engine is what differs between
// them: busy clocks, traffic counters, the send and delivery paths,
// CarrierUp and Reachable.
//
// Components are indexed by their topology.Component id directly. Both
// shapes number NICs first (host*ports + port), then the shared
// elements (back planes; or switches, then trunks), so no Describe
// call and no per-shape branch is needed.
type state struct {
	sched        *simtime.Scheduler
	params       Params
	nodes, ports int

	// txUp[c] and rxUp[c] are the two duplex halves of component c. A
	// NIC is operational only when both are set; a unidirectional
	// (gray) failure clears one. A shared element has no direction:
	// its two halves always move together, and the engines read txUp.
	txUp, rxUp []bool
	// nodeUp[i] is false while node i's daemon is fail-stopped (crash
	// lifecycle). Unlike a NIC failure this blackholes every frame the
	// node sends or would receive without touching component state.
	nodeUp  []bool
	handler []Handler
	// tap, when non-nil, observes every frame (see Tap).
	tap Tap

	// rnd drives Params.LossRate. impRnd is a substream split off it
	// at construction (splitting does not perturb the parent), so
	// enabling impairments never changes the loss draw sequence.
	rnd, impRnd *rng.Source
	// imp holds the active impairments by component, nil until the
	// first SetImpairment so the healthy path stays free: every read
	// on a frame's path is behind an imp == nil check, and with no
	// impairment installed no randomness is drawn at all, which keeps
	// unimpaired runs byte-identical.
	imp map[topology.Component]Impairment

	// epoch counts component state changes; FabricNet's route tables
	// are stale when their epoch differs.
	epoch uint64

	// minTx and minBits are wireTime's answer for a minimum frame.
	minTx   time.Duration
	minBits float64
}

// newState builds the healthy state of a nodes×ports network whose
// component universe has comps ids.
func newState(sched *simtime.Scheduler, params Params, nodes, ports, comps int, seed uint64) (state, error) {
	if sched == nil {
		return state{}, fmt.Errorf("netsim: nil scheduler")
	}
	if err := params.validate(); err != nil {
		return state{}, err
	}
	s := state{
		sched:   sched,
		params:  params,
		nodes:   nodes,
		ports:   ports,
		txUp:    make([]bool, comps),
		rxUp:    make([]bool, comps),
		nodeUp:  make([]bool, nodes),
		handler: make([]Handler, nodes),
		rnd:     rng.New(seed),
	}
	s.impRnd = s.rnd.Split(0xc4a05)
	s.minTx, s.minBits = params.frameTime(params.MinFrameBytes)
	for c := range s.txUp {
		s.txUp[c], s.rxUp[c] = true, true
	}
	for i := range s.nodeUp {
		s.nodeUp[i] = true
	}
	return s, nil
}

// nic is the component id of node's interface on rail, without the
// range check of the topology accessors: callers have validated both.
func (s *state) nic(node, rail int) topology.Component {
	return topology.Component(node*s.ports + rail)
}

// Nodes returns the number of nodes (hosts).
func (s *state) Nodes() int { return s.nodes }

// Rails returns the number of rails (NIC ports per node).
func (s *state) Rails() int { return s.ports }

// Scheduler returns the driving scheduler (for protocol timers).
func (s *state) Scheduler() *simtime.Scheduler { return s.sched }

// SetHandler installs the frame handler for node.
func (s *state) SetHandler(node int, h Handler) {
	s.checkNode(node)
	s.handler[node] = h
}

// SetTap installs (or, with nil, removes) the network's frame
// observer. At most one tap is active; the healthy fast path pays
// nothing when none is installed.
func (s *state) SetTap(t Tap) { s.tap = t }

// Fail takes a component down. Failing an already failed component is
// a no-op. Frames in flight through a failed shared element are lost;
// frames in flight to a failed NIC are lost at delivery.
func (s *state) Fail(c topology.Component) { s.FailDir(c, DirBoth) }

// Restore brings a failed component back (both directions of a NIC).
func (s *state) Restore(c topology.Component) { s.RestoreDir(c, DirBoth) }

// FailDir takes one direction of a NIC down — the gray failure a
// fail-stop model cannot express: a TX-dead NIC silently eats
// everything its node sends on that rail while replies still arrive,
// and vice versa. For back planes, switches and trunks the direction
// is ignored and the whole component fails.
func (s *state) FailDir(c topology.Component, dir Direction) { s.setDir(c, dir, false) }

// RestoreDir brings one direction of a NIC (or a whole shared
// element) back.
func (s *state) RestoreDir(c topology.Component, dir Direction) { s.setDir(c, dir, true) }

func (s *state) setDir(c topology.Component, dir Direction, up bool) {
	s.checkComp(c)
	if int(c) >= s.nodes*s.ports {
		dir = DirBoth
	}
	if dir == DirBoth || dir == DirTx {
		s.txUp[c] = up
	}
	if dir == DirBoth || dir == DirRx {
		s.rxUp[c] = up
	}
	s.epoch++
}

// ComponentUp reports whether a component is fully operational (both
// directions, for a NIC).
func (s *state) ComponentUp(c topology.Component) bool {
	s.checkComp(c)
	return s.txUp[c] && s.rxUp[c]
}

// DirUp reports whether the given direction of a component works (for
// a shared element any direction means the whole component).
func (s *state) DirUp(c topology.Component, dir Direction) bool {
	s.checkComp(c)
	switch dir {
	case DirTx:
		return s.txUp[c]
	case DirRx:
		return s.rxUp[c]
	default:
		return s.txUp[c] && s.rxUp[c]
	}
}

// FailedComponents returns the currently failed components in
// ascending order — the ground-truth failure scenario for comparing
// simulated behaviour against the analytic model.
func (s *state) FailedComponents() []topology.Component {
	var out []topology.Component
	for c := range s.txUp {
		if !s.txUp[c] || !s.rxUp[c] {
			out = append(out, topology.Component(c))
		}
	}
	return out
}

// FailNode fail-stops node's daemon process: every frame it sends or
// would receive blackholes from this instant until RestoreNode. The
// NICs stay electrically up — ComponentUp still reports healthy — so
// peers see unanswered probes, not a severed link, exactly like a
// crashed router whose hardware keeps link lights on.
func (s *state) FailNode(node int) {
	s.checkNode(node)
	s.nodeUp[node] = false
}

// RestoreNode brings a fail-stopped node's process back.
func (s *state) RestoreNode(node int) {
	s.checkNode(node)
	s.nodeUp[node] = true
}

// NodeUp reports whether node's daemon process is running.
func (s *state) NodeUp(node int) bool {
	s.checkNode(node)
	return s.nodeUp[node]
}

// SetImpairment installs (or replaces) the impairment on component c.
// A zero impairment is equivalent to ClearImpairment.
func (s *state) SetImpairment(c topology.Component, imp Impairment) error {
	if err := imp.Validate(); err != nil {
		return err
	}
	s.checkComp(c)
	if imp.IsZero() {
		s.ClearImpairment(c)
		return nil
	}
	if s.imp == nil {
		s.imp = make(map[topology.Component]Impairment)
	}
	s.imp[c] = imp
	return nil
}

// ClearImpairment removes any impairment on c.
func (s *state) ClearImpairment(c topology.Component) {
	delete(s.imp, c)
	if len(s.imp) == 0 {
		s.imp = nil
	}
}

// ImpairmentOn returns the active impairment on c, if any.
func (s *state) ImpairmentOn(c topology.Component) (Impairment, bool) {
	imp, ok := s.imp[c]
	return imp, ok
}

// impair draws the impairment of one transmit-side crossing of c. It
// returns whether the frame is eaten, the extra delay it accrues, and
// whether its payload is corrupted. Draw order: loss, then jitter,
// then corruption.
//
// impairRx draws in a different order (loss, corruption, jitter).
// The difference is an accident of history with no modelling meaning,
// but seeded goldens pin both sequences, so both stay.
func (s *state) impair(c topology.Component) (drop bool, extra time.Duration, corrupt bool) {
	if s.imp == nil {
		return false, 0, false
	}
	imp, ok := s.imp[c]
	if !ok {
		return false, 0, false
	}
	if imp.Loss > 0 && s.impRnd.Float64() < imp.Loss {
		return true, 0, false
	}
	extra = imp.Delay
	if imp.Jitter > 0 {
		extra += time.Duration(s.impRnd.Uint64n(uint64(imp.Jitter)))
	}
	if imp.Corrupt > 0 && s.impRnd.Float64() < imp.Corrupt {
		corrupt = true
	}
	return false, extra, corrupt
}

// impair2 draws the impairments of two components crossed back to
// back (a sender's NIC, then the element it feeds), in that order.
func (s *state) impair2(a, b topology.Component) (drop bool, extra time.Duration, corrupt bool) {
	if s.imp == nil {
		return false, 0, false
	}
	d1, e1, c1 := s.impair(a)
	if d1 {
		return true, 0, false
	}
	d2, e2, c2 := s.impair(b)
	if d2 {
		return true, 0, false
	}
	return false, e1 + e2, c1 || c2
}

// impairRx draws the receive-side impairment of NIC c at a frame's
// arrival, so broadcast receivers are impaired independently. Draw
// order: loss, then corruption, then jitter (see impair).
func (s *state) impairRx(c topology.Component) (drop bool, extra time.Duration, corrupt bool) {
	if s.imp == nil {
		return false, 0, false
	}
	imp, ok := s.imp[c]
	if !ok {
		return false, 0, false
	}
	if imp.Loss > 0 && s.impRnd.Float64() < imp.Loss {
		return true, 0, false
	}
	if imp.Corrupt > 0 && s.impRnd.Float64() < imp.Corrupt {
		corrupt = true
	}
	extra = imp.Delay
	if imp.Jitter > 0 {
		extra += time.Duration(s.impRnd.Uint64n(uint64(imp.Jitter)))
	}
	return false, extra, corrupt
}

// mangle flips one byte of data in place (no-op for empty payloads) —
// the corruption model: a burst error the FCS failed to catch.
func (s *state) mangle(data []byte) {
	if len(data) == 0 {
		return
	}
	i := s.impRnd.Intn(len(data))
	data[i] ^= byte(1 + s.impRnd.Intn(255))
}

// wireTime returns the serialization time and on-wire bits of a
// payload: overhead added, minimum frame size enforced. Probes, echoes,
// queries and offers are all minimum frames, so their answer is the
// one newState computed.
func (s *state) wireTime(payloadLen int) (time.Duration, float64) {
	wire := payloadLen + s.params.OverheadBytes
	if wire <= s.params.MinFrameBytes {
		return s.minTx, s.minBits
	}
	return s.params.frameTime(wire)
}

// frameTime returns the serialization time and bits of wire bytes on
// the wire.
func (p Params) frameTime(wire int) (time.Duration, float64) {
	return time.Duration(float64(wire*8) / p.Rate * float64(time.Second)), float64(wire * 8)
}

// inlineBytes is the largest payload an in-flight record holds inline:
// every probe, echo, query, offer and rejoin fits, and it is what
// leaves each engine's record at 128 bytes.
const inlineBytes = 28

// spilled marks a payload whose bytes live in the spill buffer.
const spilled = 0xff

// payload is an in-flight frame's own copy of its bytes: inline when
// they fit, otherwise in a spill buffer the record keeps, capacity
// and all, across recycling.
type payload struct {
	spill  *[]byte
	n      uint8 // inline length, or spilled
	inline [inlineBytes]byte
}

// set copies b into the payload.
func (p *payload) set(b []byte) {
	if len(b) <= inlineBytes {
		p.n = uint8(copy(p.inline[:], b))
		return
	}
	if p.spill == nil {
		p.spill = new([]byte)
	}
	*p.spill = append((*p.spill)[:0], b...)
	p.n = spilled
}

// bytes returns the payload, valid until the record is recycled.
func (p *payload) bytes() []byte {
	if p.n == spilled {
		return *p.spill
	}
	return p.inline[:p.n]
}

// occupy serializes a frame of duration tx on the link whose busy
// clock is *busy, starting when the link is free but no earlier than
// from, and returns the instant the last bit leaves.
func occupy(busy *simtime.Time, from simtime.Time, tx time.Duration) simtime.Time {
	if *busy > from {
		from = *busy
	}
	*busy = from.Add(tx)
	return *busy
}

// checkSend is the request validation both Send methods share: a bad
// rail or a frame to oneself is an error, a bad node index a panic.
func (s *state) checkSend(src, rail, dst int) error {
	s.checkNode(src)
	if rail < 0 || rail >= s.ports {
		return fmt.Errorf("netsim: rail %d out of range", rail)
	}
	if dst != Broadcast {
		s.checkNode(dst)
		if dst == src {
			return fmt.Errorf("netsim: node %d sending to itself", src)
		}
	}
	return nil
}

func (s *state) checkRail(rail int) {
	if rail < 0 || rail >= s.ports {
		panic(fmt.Sprintf("netsim: rail %d out of range", rail))
	}
}

func (s *state) checkNode(node int) {
	if node < 0 || node >= s.nodes {
		panic(fmt.Sprintf("netsim: node %d out of range [0,%d)", node, s.nodes))
	}
}

func (s *state) checkComp(c topology.Component) {
	if int(c) < 0 || int(c) >= len(s.txUp) {
		panic(fmt.Sprintf("netsim: component %d out of range (universe %d)", int(c), len(s.txUp)))
	}
}
