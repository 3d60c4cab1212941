package icmp

import (
	"bytes"
	"testing"
)

// FuzzUnmarshal checks that arbitrary bytes never panic the decoder
// and that everything it accepts re-marshals to the identical wire
// form (round-trip stability).
func FuzzUnmarshal(f *testing.F) {
	f.Add([]byte{})
	f.Add(Echo{Request: true, ID: 1, Seq: 2}.Marshal())
	f.Add(Echo{Request: false, ID: 0xffff, Seq: 0xffff, Data: []byte("payload")}.Marshal())
	f.Add([]byte{8, 0, 0, 0, 0, 0, 0, 0})
	f.Add(Echo{Request: true, ID: 9, Seq: 10, Data: []byte("odd")}.AppendTo(nil))
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := Unmarshal(b)
		if err != nil {
			return
		}
		// Accepted messages must round-trip bit for bit.
		out := e.Marshal()
		if !bytes.Equal(out, b) {
			t.Fatalf("round trip changed wire form: % x -> % x", b, out)
		}
		// The append form agrees wherever in a buffer it lands.
		if app := e.AppendTo([]byte{1}); !bytes.Equal(app[1:], b) {
			t.Fatalf("AppendTo changed wire form: % x -> % x", b, app[1:])
		}
	})
}

// FuzzChecksum checks Checksum against checksum16, the 16-bit loop it
// replaced, and Unmarshal's accept/reject verdict against the verdict
// checksum16 gives: the message is accepted exactly when its header is
// an echo's and its checksum field holds what the encoder writes over
// the other words.
func FuzzChecksum(f *testing.F) {
	for n := 0; n < 4; n++ {
		f.Add(bytes.Repeat([]byte{0xff}, n))
	}
	f.Add(make([]byte, 24))
	f.Add(bytes.Repeat([]byte{0xff}, 24))
	f.Add(Echo{Data: make([]byte, 16)}.Marshal())
	f.Add(Echo{Request: true, ID: 0xffff, Seq: 0xffff, Data: bytes.Repeat([]byte{0xff}, 16)}.Marshal())
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, want := Checksum(b), checksum16(b); got != want {
			t.Fatalf("Checksum(% x) = %#04x, 16-bit loop gives %#04x", b, got, want)
		}
		want := len(b) >= HeaderLen && (b[0] == TypeEchoRequest || b[0] == TypeEchoReply) && b[1] == 0
		if want {
			zeroed := append([]byte(nil), b...)
			zeroed[2], zeroed[3] = 0, 0
			want = uint16(b[2])<<8|uint16(b[3]) == checksum16(zeroed)
		}
		if _, err := Unmarshal(b); (err == nil) != want {
			t.Fatalf("Unmarshal(% x) = %v, 16-bit loop accepts: %v", b, err, want)
		}
	})
}
