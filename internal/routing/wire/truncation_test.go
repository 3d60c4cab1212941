package wire

import (
	"fmt"
	"testing"
)

// seedFrames returns one well-formed frame of every kind the protocol
// stack can emit, plus frames of the retired control types — the
// shared corpus for FuzzFrame's seeds and the deterministic truncation
// audit below.
func seedFrames() [][]byte {
	advert, _ := MarshalAdvert(Advert{Reachable: []uint16{1, 9, 300}})
	return [][]byte{
		Envelope(ProtoData, MarshalData(DataHeader{Origin: 1, Final: 2, TTL: 3, Seq: 4}, []byte("x"))),
		Envelope(ProtoAdvert, advert),
		Envelope(ProtoControl, MarshalQuery(Query{Origin: 1, Target: 2, Seq: 3, TTL: 2})),
		Envelope(ProtoControl, MarshalOffer(Offer{Origin: 1, Target: 2, Seq: 3, Relay: 7})),
		// The retired hello and goodbye (control types 3 and 4), now
		// unknown types that every decoder must pass over.
		Envelope(ProtoControl, []byte{3}),
		Envelope(ProtoControl, []byte{4}),
		Envelope(ProtoControl, MarshalLSA(LSA{Origin: 5, Seq: 9, Neighbors: []Adjacency{{1, 0}, {2, 1}}})),
		Envelope(ProtoControl, MarshalRejoin(2)),
		// The retired incarnation-stamped hello (type 6), likewise.
		Envelope(ProtoControl, []byte{6, 0, 0, 0, 3}),
		Envelope(ProtoControl, MarshalOfferInc(Offer{Origin: 1, Target: 2, Seq: 3, Relay: 7}, 4)),
		Envelope(ProtoFailover, MarshalFailover(FailoverHeader{Origin: 1, Final: 2, Seq: 3, Attempt: 1, Hops: 2}, []byte("y"))),
		Envelope(ProtoFailover, MarshalFailover(FailoverHeader{Origin: 9, Final: 0, Seq: 0xffffffff, Attempt: 255, Hops: 255}, nil)),
	}
}

// decodeFrame drives a frame through SplitEnvelope and the decoder
// the stack would apply to its kind — the same dispatch FuzzFrame
// uses, minus the round-trip assertions.
func decodeFrame(frame []byte) {
	proto, body, err := SplitEnvelope(frame)
	if err != nil {
		return
	}
	switch proto {
	case ProtoData:
		UnmarshalData(body)
	case ProtoFailover:
		UnmarshalFailover(body)
	case ProtoAdvert:
		UnmarshalAdvert(body)
	case ProtoControl:
		if len(body) == 0 {
			return
		}
		switch body[0] {
		case MsgRouteQuery:
			UnmarshalQuery(body)
		case MsgRouteOffer:
			UnmarshalOffer(body)
		case MsgRejoin:
			UnmarshalRejoin(body)
		case MsgOfferInc:
			UnmarshalOfferInc(body)
		case MsgLSA:
			UnmarshalLSA(body)
		}
	}
}

// TestDecodersTolerateTruncation feeds every strict prefix of every
// frame kind through the full decode dispatch and requires no panics
// — the deterministic form of the datagram-truncation guarantee a
// real socket transport depends on, independent of the fuzzer.
func TestDecodersTolerateTruncation(t *testing.T) {
	for _, frame := range seedFrames() {
		for cut := len(frame); cut >= 0; cut-- {
			prefix := frame[:cut]
			t.Run(fmt.Sprintf("%x", prefix), func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("decoder panicked on %d-byte prefix of %x: %v", cut, frame, r)
					}
				}()
				decodeFrame(prefix)
			})
		}
	}
}
