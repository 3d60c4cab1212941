package icmp

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	e := Echo{Request: true, ID: 0x1234, Seq: 7, Data: []byte("drs-probe")}
	b := e.Marshal()
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Request != e.Request || got.ID != e.ID || got.Seq != e.Seq || !bytes.Equal(got.Data, e.Data) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, e)
	}
}

func TestRoundTripQuick(t *testing.T) {
	err := quick.Check(func(req bool, id, seq uint16, data []byte) bool {
		e := Echo{Request: req, ID: id, Seq: seq, Data: data}
		got, err := Unmarshal(e.Marshal())
		return err == nil &&
			got.Request == req && got.ID == id && got.Seq == seq &&
			bytes.Equal(got.Data, data)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWireFormat(t *testing.T) {
	b := Echo{Request: true, ID: 0x0102, Seq: 0x0304}.Marshal()
	if len(b) != HeaderLen {
		t.Fatalf("len = %d", len(b))
	}
	if b[0] != TypeEchoRequest || b[1] != 0 {
		t.Fatalf("type/code = %d/%d", b[0], b[1])
	}
	if b[4] != 1 || b[5] != 2 || b[6] != 3 || b[7] != 4 {
		t.Fatalf("id/seq bytes wrong: % x", b)
	}
	r := Echo{Request: false, ID: 1, Seq: 1}.Marshal()
	if r[0] != TypeEchoReply {
		t.Fatalf("reply type = %d", r[0])
	}
}

func TestChecksumRFC1071Example(t *testing.T) {
	// Classic example from RFC 1071 §3: words 0001 f203 f4f5 f6f7
	// sum to ddf2 (before complement), so the checksum is ^0xddf2.
	b := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(b); got != ^uint16(0xddf2) {
		t.Fatalf("checksum = %#x, want %#x", got, ^uint16(0xddf2))
	}
}

func TestChecksumOddLength(t *testing.T) {
	// Odd-length data is padded with a zero byte.
	if Checksum([]byte{0xab}) != Checksum([]byte{0xab, 0x00}) {
		t.Fatal("odd-length padding wrong")
	}
}

func TestChecksumSelfVerifies(t *testing.T) {
	err := quick.Check(func(data []byte) bool {
		b := Echo{Request: true, ID: 9, Seq: 9, Data: data}.Marshal()
		return Checksum(b) == 0
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	e := Echo{Request: true, ID: 42, Seq: 1000, Data: []byte{1, 2, 3, 4}}
	b := e.Marshal()
	for i := range b {
		for _, flip := range []byte{0x01, 0x80} {
			c := append([]byte(nil), b...)
			c[i] ^= flip
			if _, err := Unmarshal(c); err == nil {
				// A flip of the type byte may still land on a valid
				// type with a now-wrong checksum; any corruption must
				// error one way or another.
				t.Fatalf("corruption at byte %d (mask %#x) not detected", i, flip)
			}
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal([]byte{8, 0, 0}); err != ErrTruncated {
		t.Fatalf("truncated: %v", err)
	}
	bad := Echo{Request: true, ID: 1, Seq: 1}.Marshal()
	bad[0] = 13 // not an echo type
	if _, err := Unmarshal(bad); err != ErrBadType {
		t.Fatalf("bad type: %v", err)
	}
	// Nonzero code with a recomputed checksum: code error.
	withCode := Echo{Request: true, ID: 1, Seq: 1}.Marshal()
	withCode[1] = 5
	if _, err := Unmarshal(withCode); err != ErrBadCode {
		t.Fatalf("bad code: %v", err)
	}
	corrupt := Echo{Request: true, ID: 1, Seq: 1}.Marshal()
	corrupt[6] ^= 0xff
	if _, err := Unmarshal(corrupt); err != ErrBadChecksum {
		t.Fatalf("bad checksum: %v", err)
	}
}

func TestReply(t *testing.T) {
	req := Echo{Request: true, ID: 5, Seq: 9, Data: []byte("x")}
	rep, err := Reply(req)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Request || rep.ID != 5 || rep.Seq != 9 || !bytes.Equal(rep.Data, req.Data) {
		t.Fatalf("reply = %+v", rep)
	}
	if _, err := Reply(rep); err == nil {
		t.Fatal("reply to a reply accepted")
	}
}

func BenchmarkMarshalUnmarshal(b *testing.B) {
	e := Echo{Request: true, ID: 3, Seq: 77, Data: make([]byte, 48)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := e.Marshal()
		if _, err := Unmarshal(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// marshalRef is the make-and-fill encoder Marshal used before AppendTo
// existed, kept as the reference the append codec must match byte for
// byte.
func marshalRef(e Echo) []byte {
	b := make([]byte, HeaderLen+len(e.Data))
	if e.Request {
		b[0] = TypeEchoRequest
	}
	b[4], b[5] = byte(e.ID>>8), byte(e.ID)
	b[6], b[7] = byte(e.Seq>>8), byte(e.Seq)
	copy(b[HeaderLen:], e.Data)
	ck := Checksum(b)
	b[2], b[3] = byte(ck>>8), byte(ck)
	return b
}

func TestAppendToMatchesReference(t *testing.T) {
	cases := []Echo{
		{Request: true, ID: 1, Seq: 2},
		{Request: false, ID: 1, Seq: 2},
		{Request: true, ID: 0xffff, Seq: 0xffff, Data: []byte{}},
		{Request: true, ID: 7, Seq: 9, Data: []byte{0xab}},
		{Request: false, ID: 7, Seq: 9, Data: []byte("odd")},
		{Request: true, ID: 127, Seq: 300, Data: []byte{0, 0, 0, 0, 0, 0x98, 0x96, 0x80}},
		{Request: false, ID: 0x1234, Seq: 0, Data: []byte("drs-probe!")},
	}
	for _, e := range cases {
		want := marshalRef(e)
		if got := e.AppendTo(nil); !bytes.Equal(got, want) {
			t.Errorf("%+v: AppendTo(nil) = % x, want % x", e, got, want)
		}
		if got := e.Marshal(); !bytes.Equal(got, want) {
			t.Errorf("%+v: Marshal = % x, want % x", e, got, want)
		}
		// Behind an envelope byte the message starts at an odd offset
		// and the prefix must neither move nor enter the checksum.
		got := e.AppendTo([]byte{0xee})
		if got[0] != 0xee || !bytes.Equal(got[1:], want) {
			t.Errorf("%+v: AppendTo(prefix) = % x, want ee + % x", e, got, want)
		}
	}
}

func TestAppendToReusesCapacity(t *testing.T) {
	e := Echo{Request: true, ID: 3, Seq: 4, Data: []byte("12345678")}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = e.AppendTo(buf[:0]) }); n != 0 {
		t.Fatalf("AppendTo into spare capacity allocates %v times", n)
	}
}
