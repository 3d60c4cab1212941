package wire

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestEnvelopeRoundTrip(t *testing.T) {
	p := Envelope(ProtoData, []byte("body"))
	proto, body, err := SplitEnvelope(p)
	if err != nil || proto != ProtoData || string(body) != "body" {
		t.Fatalf("split = %d %q %v", proto, body, err)
	}
	if _, _, err := SplitEnvelope(nil); err != ErrShortFrame {
		t.Fatalf("empty envelope: %v", err)
	}
}

func TestDataHeaderRoundTrip(t *testing.T) {
	err := quick.Check(func(origin, final uint16, ttl uint8, seq uint32, data []byte) bool {
		h := DataHeader{Origin: origin, Final: final, TTL: ttl, Seq: seq}
		got, gotData, err := UnmarshalData(MarshalData(h, data))
		return err == nil && got == h && bytes.Equal(gotData, data)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalDataShort(t *testing.T) {
	if _, _, err := UnmarshalData(make([]byte, DataHeaderLen-1)); err != ErrShortFrame {
		t.Fatalf("short data: %v", err)
	}
}

func TestFailoverHeaderRoundTrip(t *testing.T) {
	err := quick.Check(func(origin, final uint16, seq uint32, attempt, hops uint8, data []byte) bool {
		h := FailoverHeader{Origin: origin, Final: final, Seq: seq, Attempt: attempt, Hops: hops}
		got, gotData, err := UnmarshalFailover(MarshalFailover(h, data))
		return err == nil && got == h && bytes.Equal(gotData, data)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalFailoverShort(t *testing.T) {
	if _, _, err := UnmarshalFailover(make([]byte, FailoverHeaderLen-1)); err != ErrShortFrame {
		t.Fatalf("short failover header: %v", err)
	}
}

func TestAdvertRoundTrip(t *testing.T) {
	err := quick.Check(func(raw []uint16) bool {
		body, err := MarshalAdvert(Advert{Reachable: raw})
		if err != nil {
			return false
		}
		got, err := UnmarshalAdvert(body)
		if err != nil || len(got.Reachable) != len(raw) {
			return false
		}
		for i := range raw {
			if got.Reachable[i] != raw[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAdvertEmpty(t *testing.T) {
	body, err := MarshalAdvert(Advert{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalAdvert(body)
	if err != nil || len(got.Reachable) != 0 {
		t.Fatalf("empty advert: %v %v", got, err)
	}
}

func TestAdvertTruncated(t *testing.T) {
	body, err := MarshalAdvert(Advert{Reachable: []uint16{1, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(body); cut++ {
		if _, err := UnmarshalAdvert(body[:len(body)-cut]); err == nil {
			t.Fatalf("truncation by %d accepted", cut)
		}
	}
	if _, err := UnmarshalAdvert([]byte{0}); err != ErrShortFrame {
		t.Fatalf("one-byte advert: %v", err)
	}
}

func TestQueryRoundTrip(t *testing.T) {
	err := quick.Check(func(origin, target uint16, seq uint32, ttl uint8) bool {
		q := Query{Origin: origin, Target: target, Seq: seq, TTL: ttl}
		got, err := UnmarshalQuery(MarshalQuery(q))
		return err == nil && got == q
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOfferRoundTrip(t *testing.T) {
	err := quick.Check(func(origin, target uint16, seq uint32, relay uint16) bool {
		o := Offer{Origin: origin, Target: target, Seq: seq, Relay: relay}
		got, err := UnmarshalOffer(MarshalOffer(o))
		return err == nil && got == o
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestControlTruncatedAndMistyped(t *testing.T) {
	query := MarshalQuery(Query{Origin: 1, Target: 2, Seq: 3, TTL: 4})
	offer := MarshalOffer(Offer{Origin: 1, Target: 2, Seq: 3, Relay: 5})
	for cut := 1; cut <= len(query); cut++ {
		if _, err := UnmarshalQuery(query[:len(query)-cut]); err != ErrBadControl {
			t.Fatalf("query truncated by %d: %v", cut, err)
		}
	}
	for cut := 1; cut <= len(offer); cut++ {
		if _, err := UnmarshalOffer(offer[:len(offer)-cut]); err != ErrBadControl {
			t.Fatalf("offer truncated by %d: %v", cut, err)
		}
	}
	// Each decoder rejects the other's type byte.
	if _, err := UnmarshalQuery(offer[:QueryLen]); err != ErrBadControl {
		t.Fatalf("query decoder accepted offer: %v", err)
	}
	if _, err := UnmarshalOffer(append(query, 0)); err != ErrBadControl {
		t.Fatalf("offer decoder accepted query: %v", err)
	}
}

// TestMembershipCodecs: the link-state adjacency heartbeat is a bare
// type byte (the DRS's one membership frame, rejoin, has its own
// round-trip test).
func TestMembershipCodecs(t *testing.T) {
	if got := MarshalLSHello(); len(got) != 1 || got[0] != MsgLSHello {
		t.Fatalf("ls hello = %v", got)
	}
}

func TestLSARoundTrip(t *testing.T) {
	err := quick.Check(func(origin uint16, seq uint32, neighbors []Adjacency) bool {
		if len(neighbors) > 0xffff {
			neighbors = neighbors[:0xffff]
		}
		e := LSA{Origin: origin, Seq: seq, Neighbors: neighbors}
		got, err := UnmarshalLSA(MarshalLSA(e))
		if err != nil || got.Origin != e.Origin || got.Seq != e.Seq ||
			len(got.Neighbors) != len(e.Neighbors) {
			return false
		}
		for i := range e.Neighbors {
			if got.Neighbors[i] != e.Neighbors[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestLSATruncated(t *testing.T) {
	body := MarshalLSA(LSA{Origin: 3, Seq: 7, Neighbors: []Adjacency{{1, 0}, {2, 1}}})
	for cut := 1; cut <= len(body); cut++ {
		if _, err := UnmarshalLSA(body[:len(body)-cut]); err != ErrBadControl {
			t.Fatalf("LSA truncated by %d: %v", cut, err)
		}
	}
}

func TestRejoinRoundTrip(t *testing.T) {
	err := quick.Check(func(inc uint32) bool {
		got, err := UnmarshalRejoin(MarshalRejoin(inc))
		return err == nil && got == inc
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestOfferIncRoundTrip(t *testing.T) {
	err := quick.Check(func(origin, target uint16, seq uint32, relay uint16, inc uint32) bool {
		o := Offer{Origin: origin, Target: target, Seq: seq, Relay: relay}
		got, gotInc, err := UnmarshalOfferInc(MarshalOfferInc(o, inc))
		return err == nil && got == o && gotInc == inc
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIncarnationCodecsTruncatedAndMistyped(t *testing.T) {
	rejoin := MarshalRejoin(7)
	offer := MarshalOfferInc(Offer{Origin: 1, Target: 2, Seq: 3, Relay: 5}, 7)
	for cut := 1; cut <= len(rejoin); cut++ {
		if _, err := UnmarshalRejoin(rejoin[:len(rejoin)-cut]); err != ErrBadControl {
			t.Fatalf("rejoin truncated by %d: %v", cut, err)
		}
	}
	for cut := 1; cut <= len(offer); cut++ {
		if _, _, err := UnmarshalOfferInc(offer[:len(offer)-cut]); err != ErrBadControl {
			t.Fatalf("offer-inc truncated by %d: %v", cut, err)
		}
	}
	// Each decoder rejects the others' type bytes.
	if _, err := UnmarshalRejoin(append([]byte{MsgOfferInc}, rejoin[1:]...)); err != ErrBadControl {
		t.Fatalf("rejoin decoder accepted offer-inc type: %v", err)
	}
	if _, _, err := UnmarshalOfferInc(append(rejoin, make([]byte, OfferIncLen)...)); err != ErrBadControl {
		t.Fatalf("offer-inc decoder accepted rejoin: %v", err)
	}
}

// TestDisjointControlRanges pins the DRS / link-state type split: a
// mixed cluster must fail loudly, which requires the ranges to never
// collide.
func TestDisjointControlRanges(t *testing.T) {
	drs := []byte{MsgRouteQuery, MsgRouteOffer, MsgRejoin, MsgOfferInc}
	ls := []byte{MsgLSHello, MsgLSA}
	for _, d := range drs {
		if d >= 64 {
			t.Errorf("DRS message type %d in link-state range", d)
		}
		for _, l := range ls {
			if d == l {
				t.Errorf("type %d used by both protocols", d)
			}
		}
	}
}
