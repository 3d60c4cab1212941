// Package wire defines every on-the-wire format the protocols share:
// the frame envelope, the application data header, reactive-routing
// advertisements, and the control-plane messages of both the DRS
// (route query/offer, rejoin, incarnation-stamped offer) and the
// link-state baseline (LSA). Keeping all codecs in one
// dependency-free package gives every protocol the same decoding
// discipline and lets a single fuzz target (FuzzFrame) exercise the
// whole parsing surface.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Protocol discriminators: the first byte of every frame payload.
const (
	// ProtoICMP frames carry an ICMP echo message (package icmp).
	ProtoICMP = 1
	// ProtoControl frames carry control messages (see Msg* below).
	ProtoControl = 2
	// ProtoData frames carry application datagrams (DataHeader + data).
	ProtoData = 3
	// ProtoAdvert frames carry reactive-routing advertisements.
	ProtoAdvert = 4
	// ProtoFailover frames carry application datagrams routed by the
	// header-rewriting static fast-failover variant: the header itself
	// is the packet's failover state (FailoverHeader).
	ProtoFailover = 5
)

// ErrShortFrame is returned when a frame is too short to decode.
var ErrShortFrame = errors.New("wire: frame too short")

// ErrBadControl is returned for undecodable control messages.
var ErrBadControl = errors.New("wire: malformed control message")

// Envelope prepends the protocol byte to a body.
func Envelope(proto byte, body []byte) []byte {
	out := make([]byte, 1+len(body))
	out[0] = proto
	copy(out[1:], body)
	return out
}

// SplitEnvelope returns the protocol byte and body of a frame payload.
func SplitEnvelope(payload []byte) (proto byte, body []byte, err error) {
	if len(payload) < 1 {
		return 0, nil, ErrShortFrame
	}
	return payload[0], payload[1:], nil
}

// DataHeader precedes every application datagram on the wire.
type DataHeader struct {
	// Origin is the node that first sent the datagram.
	Origin uint16
	// Final is the ultimate destination node.
	Final uint16
	// TTL bounds forwarding hops; a relay decrements it and drops at
	// zero, so a routing loop can never circulate traffic.
	TTL uint8
	// Seq is an origin-assigned sequence number (for tracing and
	// duplicate detection by applications).
	Seq uint32
}

// DataHeaderLen is the encoded size of a DataHeader.
const DataHeaderLen = 9

// MarshalData encodes the header and payload as a ProtoData body.
func MarshalData(h DataHeader, data []byte) []byte {
	return AppendData(make([]byte, 0, DataHeaderLen+len(data)), h, data)
}

// AppendData appends the encoded header and payload to buf and returns
// the extended slice — the allocation-free form of MarshalData for
// hot paths that reuse a scratch buffer.
func AppendData(buf []byte, h DataHeader, data []byte) []byte {
	var hdr [DataHeaderLen]byte
	binary.BigEndian.PutUint16(hdr[0:2], h.Origin)
	binary.BigEndian.PutUint16(hdr[2:4], h.Final)
	hdr[4] = h.TTL
	binary.BigEndian.PutUint32(hdr[5:9], h.Seq)
	buf = append(buf, hdr[:]...)
	return append(buf, data...)
}

// UnmarshalData decodes a ProtoData body. The returned data aliases b.
func UnmarshalData(b []byte) (DataHeader, []byte, error) {
	if len(b) < DataHeaderLen {
		return DataHeader{}, nil, ErrShortFrame
	}
	h := DataHeader{
		Origin: binary.BigEndian.Uint16(b[0:2]),
		Final:  binary.BigEndian.Uint16(b[2:4]),
		TTL:    b[4],
		Seq:    binary.BigEndian.Uint32(b[5:9]),
	}
	return h, b[DataHeaderLen:], nil
}

// FailoverHeader precedes every datagram of the header-rewriting
// static fast-failover variant. Unlike DataHeader there is no TTL:
// loop-freedom comes from Attempt increasing monotonically at every
// reroute (a packet can never revisit a node in the same header
// state), and Hops is a plain odometer used only to bound stretch.
type FailoverHeader struct {
	// Origin is the node that first sent the datagram.
	Origin uint16
	// Final is the ultimate destination node.
	Final uint16
	// Seq is an origin-assigned sequence number.
	Seq uint32
	// Attempt is the index of the precomputed forwarding alternative
	// (arborescence) the packet is currently following. Any node that
	// switches alternatives rewrites it — strictly upward — so the
	// packet's exploration is a monotone walk over the candidate
	// sequence and terminates without a TTL.
	Attempt uint8
	// Hops counts forwarding hops consumed, for stretch accounting and
	// as a defence-in-depth bound against corrupted tables.
	Hops uint8
}

// FailoverHeaderLen is the encoded size of a FailoverHeader.
const FailoverHeaderLen = 10

// MarshalFailover encodes the header and payload as a ProtoFailover
// body.
func MarshalFailover(h FailoverHeader, data []byte) []byte {
	out := make([]byte, FailoverHeaderLen+len(data))
	binary.BigEndian.PutUint16(out[0:2], h.Origin)
	binary.BigEndian.PutUint16(out[2:4], h.Final)
	binary.BigEndian.PutUint32(out[4:8], h.Seq)
	out[8] = h.Attempt
	out[9] = h.Hops
	copy(out[FailoverHeaderLen:], data)
	return out
}

// UnmarshalFailover decodes a ProtoFailover body. The returned data
// aliases b.
func UnmarshalFailover(b []byte) (FailoverHeader, []byte, error) {
	if len(b) < FailoverHeaderLen {
		return FailoverHeader{}, nil, ErrShortFrame
	}
	h := FailoverHeader{
		Origin:  binary.BigEndian.Uint16(b[0:2]),
		Final:   binary.BigEndian.Uint16(b[2:4]),
		Seq:     binary.BigEndian.Uint32(b[4:8]),
		Attempt: b[8],
		Hops:    b[9],
	}
	return h, b[FailoverHeaderLen:], nil
}

// Advert is a reactive-routing advertisement: the sender's identity is
// carried by the frame; the body lists the nodes the sender currently
// has direct (metric-1) routes to, letting receivers form metric-2
// routes through the sender.
type Advert struct {
	Reachable []uint16
}

// MarshalAdvert encodes an advertisement body.
func MarshalAdvert(a Advert) ([]byte, error) {
	if len(a.Reachable) > 0xffff {
		return nil, fmt.Errorf("wire: advert lists %d nodes", len(a.Reachable))
	}
	out := make([]byte, 2+2*len(a.Reachable))
	binary.BigEndian.PutUint16(out[0:2], uint16(len(a.Reachable)))
	for i, n := range a.Reachable {
		binary.BigEndian.PutUint16(out[2+2*i:], n)
	}
	return out, nil
}

// UnmarshalAdvert decodes an advertisement body.
func UnmarshalAdvert(b []byte) (Advert, error) {
	if len(b) < 2 {
		return Advert{}, ErrShortFrame
	}
	n := int(binary.BigEndian.Uint16(b[0:2]))
	if len(b) < 2+2*n {
		return Advert{}, ErrShortFrame
	}
	a := Advert{Reachable: make([]uint16, n)}
	for i := 0; i < n; i++ {
		a.Reachable[i] = binary.BigEndian.Uint16(b[2+2*i:])
	}
	return a, nil
}
