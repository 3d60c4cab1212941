package wire

import (
	"bytes"
	"testing"
)

// FuzzFrame is the single fuzz entry point for the whole wire surface:
// it feeds an arbitrary frame through SplitEnvelope and then through
// every decoder the protocol stack would apply to that frame kind,
// checking that no decoder panics and that every accepted message
// re-marshals to the bytes it was decoded from (decoders ignore
// trailing bytes, so the comparison is prefix-wise).
func FuzzFrame(f *testing.F) {
	f.Add([]byte{})
	for _, frame := range seedFrames() {
		f.Add(frame)
		// A real socket delivers truncated datagrams; seed every
		// strict prefix of every frame kind so the decoders' bounds
		// checks are exercised from the first corpus run.
		for cut := len(frame) - 1; cut >= 0; cut-- {
			f.Add(frame[:cut])
		}
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		proto, body, err := SplitEnvelope(frame)
		if err != nil {
			if len(frame) != 0 {
				t.Fatalf("SplitEnvelope rejected %d bytes", len(frame))
			}
			return
		}
		switch proto {
		case ProtoData:
			h, data, err := UnmarshalData(body)
			if err != nil {
				return
			}
			if out := MarshalData(h, data); !bytes.Equal(out, body) {
				t.Fatalf("data round trip: %x -> %x", body, out)
			}
		case ProtoFailover:
			h, data, err := UnmarshalFailover(body)
			if err != nil {
				return
			}
			if out := MarshalFailover(h, data); !bytes.Equal(out, body) {
				t.Fatalf("failover round trip: %x -> %x", body, out)
			}
		case ProtoAdvert:
			a, err := UnmarshalAdvert(body)
			if err != nil {
				return
			}
			out, err := MarshalAdvert(a)
			if err != nil {
				t.Fatalf("re-marshal of accepted advert failed: %v", err)
			}
			if len(out) > len(body) || !bytes.Equal(out, body[:len(out)]) {
				t.Fatalf("advert round trip: %x -> %x", body, out)
			}
		case ProtoControl:
			if len(body) == 0 {
				return
			}
			switch body[0] {
			case MsgRouteQuery:
				q, err := UnmarshalQuery(body)
				if err != nil {
					return
				}
				out := MarshalQuery(q)
				if !bytes.Equal(out, body[:len(out)]) {
					t.Fatalf("query round trip: %x -> %x", body, out)
				}
			case MsgRouteOffer:
				o, err := UnmarshalOffer(body)
				if err != nil {
					return
				}
				out := MarshalOffer(o)
				if !bytes.Equal(out, body[:len(out)]) {
					t.Fatalf("offer round trip: %x -> %x", body, out)
				}
			case MsgLSHello:
				// Adjacency heartbeats are a bare type byte: nothing
				// further to decode.
			case MsgRejoin:
				inc, err := UnmarshalRejoin(body)
				if err != nil {
					return
				}
				out := MarshalRejoin(inc)
				if !bytes.Equal(out, body[:len(out)]) {
					t.Fatalf("rejoin round trip: %x -> %x", body, out)
				}
			case MsgOfferInc:
				o, inc, err := UnmarshalOfferInc(body)
				if err != nil {
					return
				}
				out := MarshalOfferInc(o, inc)
				if !bytes.Equal(out, body[:len(out)]) {
					t.Fatalf("offer-inc round trip: %x -> %x", body, out)
				}
			case MsgLSA:
				e, err := UnmarshalLSA(body)
				if err != nil {
					return
				}
				out := MarshalLSA(e)
				if !bytes.Equal(out, body[:len(out)]) {
					t.Fatalf("LSA round trip: %x -> %x", body, out)
				}
			}
		}
	})
}
