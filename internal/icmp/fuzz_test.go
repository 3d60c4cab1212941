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
