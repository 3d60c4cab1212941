// Package icmp implements the ICMP echo request/reply wire format
// (RFC 792) used by DRS link checks. The DRS determines link health by
// sending an echo request to each monitored host on each network; a
// returned echo validates the hub, wiring, NIC, driver, protocol stack
// and kernel of both ends.
//
// Only the echo message pair is implemented — it is all the protocol
// needs — but the encoding is the real one: type, code, Internet
// checksum, identifier and sequence number, followed by opaque data.
package icmp

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Message types (RFC 792).
const (
	TypeEchoReply   = 0
	TypeEchoRequest = 8
)

// HeaderLen is the length of the fixed echo header in bytes.
const HeaderLen = 8

// Errors returned by Unmarshal.
var (
	ErrTruncated   = errors.New("icmp: message shorter than header")
	ErrBadChecksum = errors.New("icmp: checksum mismatch")
	ErrBadType     = errors.New("icmp: not an echo message")
	ErrBadCode     = errors.New("icmp: nonzero code in echo message")
)

// Echo is an ICMP echo request or reply.
type Echo struct {
	// Request distinguishes echo request (true) from echo reply.
	Request bool
	// ID identifies the sending process; DRS daemons use their node
	// index.
	ID uint16
	// Seq is the probe sequence number.
	Seq uint16
	// Data is the optional payload, echoed back verbatim.
	Data []byte
}

// Marshal encodes the message with a correct Internet checksum.
func (e Echo) Marshal() []byte {
	return e.AppendTo(make([]byte, 0, HeaderLen+len(e.Data)))
}

// AppendTo appends the encoded message to buf and returns the extended
// slice — the allocation-free form of Marshal for hot paths that reuse
// a scratch buffer. The checksum covers only the appended message, so
// buf may already hold an envelope byte (odd offsets are fine).
func (e Echo) AppendTo(buf []byte) []byte {
	typ := byte(TypeEchoReply)
	if e.Request {
		typ = TypeEchoRequest
	}
	off := len(buf)
	buf = append(buf, typ, 0, 0, 0, byte(e.ID>>8), byte(e.ID), byte(e.Seq>>8), byte(e.Seq))
	buf = append(buf, e.Data...)
	binary.BigEndian.PutUint16(buf[off+2:], Checksum(buf[off:]))
	return buf
}

// Unmarshal decodes and validates an echo message, verifying the
// checksum. The returned Echo's Data aliases b.
func Unmarshal(b []byte) (Echo, error) {
	if len(b) < HeaderLen {
		return Echo{}, ErrTruncated
	}
	switch b[0] {
	case TypeEchoRequest, TypeEchoReply:
	default:
		return Echo{}, ErrBadType
	}
	if b[1] != 0 {
		return Echo{}, ErrBadCode
	}
	// Compare with the checksum AppendTo writes over the other words.
	// Summing the whole message to zero instead would also accept
	// 0xffff where the encoder writes 0x0000 (ones'-complement
	// arithmetic has two zeros), a form that does not re-encode to the
	// same bytes.
	rest := uint32(^Checksum(b[:2])) + uint32(^Checksum(b[4:]))
	if binary.BigEndian.Uint16(b[2:4]) != ^uint16(rest&0xffff+rest>>16) {
		return Echo{}, ErrBadChecksum
	}
	return Echo{
		Request: b[0] == TypeEchoRequest,
		ID:      binary.BigEndian.Uint16(b[4:6]),
		Seq:     binary.BigEndian.Uint16(b[6:8]),
		Data:    b[HeaderLen:],
	}, nil
}

// Reply constructs the echo reply for a request, echoing ID, Seq and
// Data as RFC 792 requires. It returns an error if e is not a request.
func Reply(e Echo) (Echo, error) {
	if !e.Request {
		return Echo{}, fmt.Errorf("icmp: cannot reply to an echo reply")
	}
	return Echo{Request: false, ID: e.ID, Seq: e.Seq, Data: e.Data}, nil
}

// Checksum computes the Internet checksum (RFC 1071) over b: the
// ones'-complement of the ones'-complement sum of the 16-bit words,
// padding an odd final byte with zero.
func Checksum(b []byte) uint16 {
	var sum uint32
	for len(b) >= 2 {
		sum += uint32(b[0])<<8 | uint32(b[1])
		b = b[2:]
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
