package wire

import "encoding/binary"

// Control message types carried in ProtoControl frames. The DRS and
// the link-state baseline occupy disjoint ranges so a mixed cluster
// fails loudly rather than silently misparsing.
const (
	// MsgRouteQuery / MsgRouteOffer are the DRS phase-2 relay
	// discovery exchange.
	MsgRouteQuery = 1
	MsgRouteOffer = 2
	// Types 3, 4 and 6 (the retired hello, goodbye and stamped hello)
	// stay unassigned, so that such a frame from an older daemon reads
	// as an unknown type and is ignored, never as another message.
	//
	// MsgRejoin announces a restarted daemon's new life: the body
	// carries a monotonically increasing incarnation number so peers
	// purge routes that relay through the previous life. MsgOfferInc
	// is the incarnation-stamped route offer, emitted only when the
	// crash–restart lifecycle is enabled (the legacy offer stays the
	// default so seeded runs are byte-identical without it).
	MsgRejoin   = 5
	MsgOfferInc = 7
	// MsgLSHello and MsgLSA belong to the OSPF-lite baseline:
	// adjacency heartbeat and link-state advertisement.
	MsgLSHello = 64
	MsgLSA     = 65
)

// MarshalLSHello encodes a link-state adjacency heartbeat.
func MarshalLSHello() []byte { return []byte{MsgLSHello} }

// Query is the broadcast the DRS makes when no direct link to a peer
// remains: "is some other server able to act as a router to create a
// new path between the sender and the proposed recipient?"
type Query struct {
	Origin uint16 // node asking
	Target uint16 // node it wants to reach
	Seq    uint32 // per-origin discovery sequence (dedupes rebroadcasts)
	TTL    uint8  // remaining rebroadcast depth
}

// QueryLen is the encoded size of a Query.
const QueryLen = 1 + 2 + 2 + 4 + 1

// MarshalQuery encodes a route query as a ProtoControl body.
func MarshalQuery(q Query) []byte {
	b := make([]byte, QueryLen)
	b[0] = MsgRouteQuery
	binary.BigEndian.PutUint16(b[1:3], q.Origin)
	binary.BigEndian.PutUint16(b[3:5], q.Target)
	binary.BigEndian.PutUint32(b[5:9], q.Seq)
	b[9] = q.TTL
	return b
}

// UnmarshalQuery decodes a route query.
func UnmarshalQuery(b []byte) (Query, error) {
	if len(b) < QueryLen || b[0] != MsgRouteQuery {
		return Query{}, ErrBadControl
	}
	return Query{
		Origin: binary.BigEndian.Uint16(b[1:3]),
		Target: binary.BigEndian.Uint16(b[3:5]),
		Seq:    binary.BigEndian.Uint32(b[5:9]),
		TTL:    b[9],
	}, nil
}

// Offer answers a Query: "I can reach Target; route through me." When
// Relay equals Target the offer came from the target itself, so the
// origin installs a direct route on the rail the offer arrived on.
type Offer struct {
	Origin uint16 // the querying node (offer is unicast back to it)
	Target uint16
	Seq    uint32 // echoes the query sequence
	Relay  uint16 // the offering node
}

// OfferLen is the encoded size of an Offer.
const OfferLen = 1 + 2 + 2 + 4 + 2

// MarshalOffer encodes a route offer as a ProtoControl body.
func MarshalOffer(o Offer) []byte {
	b := make([]byte, OfferLen)
	b[0] = MsgRouteOffer
	binary.BigEndian.PutUint16(b[1:3], o.Origin)
	binary.BigEndian.PutUint16(b[3:5], o.Target)
	binary.BigEndian.PutUint32(b[5:9], o.Seq)
	binary.BigEndian.PutUint16(b[9:11], o.Relay)
	return b
}

// UnmarshalOffer decodes a route offer.
func UnmarshalOffer(b []byte) (Offer, error) {
	if len(b) < OfferLen || b[0] != MsgRouteOffer {
		return Offer{}, ErrBadControl
	}
	return Offer{
		Origin: binary.BigEndian.Uint16(b[1:3]),
		Target: binary.BigEndian.Uint16(b[3:5]),
		Seq:    binary.BigEndian.Uint32(b[5:9]),
		Relay:  binary.BigEndian.Uint16(b[9:11]),
	}, nil
}

// RejoinLen is the encoded size of a rejoin announcement: one type
// byte plus the incarnation.
const RejoinLen = 1 + 4

// MarshalRejoin encodes a rejoin announcement carrying the sender's
// incarnation number.
func MarshalRejoin(incarnation uint32) []byte {
	b := make([]byte, RejoinLen)
	b[0] = MsgRejoin
	binary.BigEndian.PutUint32(b[1:5], incarnation)
	return b
}

// UnmarshalRejoin decodes a rejoin announcement.
func UnmarshalRejoin(b []byte) (incarnation uint32, err error) {
	if len(b) < RejoinLen || b[0] != MsgRejoin {
		return 0, ErrBadControl
	}
	return binary.BigEndian.Uint32(b[1:5]), nil
}

// OfferIncLen is the encoded size of an incarnation-stamped offer.
const OfferIncLen = OfferLen + 4

// MarshalOfferInc encodes a route offer stamped with the relay's
// incarnation, so the querying node can reject an offer that was
// delayed past the relay's next reboot.
func MarshalOfferInc(o Offer, incarnation uint32) []byte {
	b := make([]byte, OfferIncLen)
	b[0] = MsgOfferInc
	binary.BigEndian.PutUint16(b[1:3], o.Origin)
	binary.BigEndian.PutUint16(b[3:5], o.Target)
	binary.BigEndian.PutUint32(b[5:9], o.Seq)
	binary.BigEndian.PutUint16(b[9:11], o.Relay)
	binary.BigEndian.PutUint32(b[11:15], incarnation)
	return b
}

// UnmarshalOfferInc decodes an incarnation-stamped route offer.
func UnmarshalOfferInc(b []byte) (Offer, uint32, error) {
	if len(b) < OfferIncLen || b[0] != MsgOfferInc {
		return Offer{}, 0, ErrBadControl
	}
	return Offer{
		Origin: binary.BigEndian.Uint16(b[1:3]),
		Target: binary.BigEndian.Uint16(b[3:5]),
		Seq:    binary.BigEndian.Uint32(b[5:9]),
		Relay:  binary.BigEndian.Uint16(b[9:11]),
	}, binary.BigEndian.Uint32(b[11:15]), nil
}

// Adjacency is one (node, rail) link an LSA's origin claims.
type Adjacency struct {
	Node uint16
	Rail uint16
}

// LSA is a link-state advertisement: the origin's full adjacency list
// under a per-origin sequence number (freshest wins, stale is not
// re-flooded, so flooding terminates).
type LSA struct {
	Origin    uint16
	Seq       uint32
	Neighbors []Adjacency
}

// lsaFixedLen is the encoded size of an LSA with no neighbors.
const lsaFixedLen = 1 + 2 + 4 + 2

// MarshalLSA encodes a link-state advertisement as a ProtoControl body.
func MarshalLSA(e LSA) []byte {
	b := make([]byte, lsaFixedLen+4*len(e.Neighbors))
	b[0] = MsgLSA
	binary.BigEndian.PutUint16(b[1:3], e.Origin)
	binary.BigEndian.PutUint32(b[3:7], e.Seq)
	binary.BigEndian.PutUint16(b[7:9], uint16(len(e.Neighbors)))
	off := lsaFixedLen
	for _, n := range e.Neighbors {
		binary.BigEndian.PutUint16(b[off:], n.Node)
		binary.BigEndian.PutUint16(b[off+2:], n.Rail)
		off += 4
	}
	return b
}

// UnmarshalLSA decodes a link-state advertisement.
func UnmarshalLSA(b []byte) (LSA, error) {
	if len(b) < lsaFixedLen || b[0] != MsgLSA {
		return LSA{}, ErrBadControl
	}
	count := int(binary.BigEndian.Uint16(b[7:9]))
	if len(b) < lsaFixedLen+4*count {
		return LSA{}, ErrBadControl
	}
	e := LSA{
		Origin: binary.BigEndian.Uint16(b[1:3]),
		Seq:    binary.BigEndian.Uint32(b[3:7]),
	}
	off := lsaFixedLen
	for i := 0; i < count; i++ {
		e.Neighbors = append(e.Neighbors, Adjacency{
			Node: binary.BigEndian.Uint16(b[off:]),
			Rail: binary.BigEndian.Uint16(b[off+2:]),
		})
		off += 4
	}
	return e, nil
}
