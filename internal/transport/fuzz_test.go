// Fuzz and property tests for the frame codec: whatever bytes a peer
// writes, readFrame returns a whole envelope or an error — never a
// partial value, never a panic — and what it accepts re-encodes to the
// bytes it consumed.
package transport

import (
	"bufio"
	"bytes"
	"testing"
)

func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(mustFrame(f, Envelope{}))
	f.Add(mustFrame(f, Envelope{From: "a", To: "b", Kind: "cmd@127.0.0.1:1", Payload: []byte("payload")}))
	f.Add(mustFrame(f, Envelope{From: "a", Payload: []byte{0xff, 0xfe, 0x00, 0xc3}})) // not UTF-8
	f.Add(append(mustFrame(f, Envelope{Kind: "k"}), 0x00))                            // a frame and a stray byte
	f.Add(rawFrame([]byte{1, 0xff, 0xff, 0xff, 0xff, 0x0f}))                          // 4 GB field in a 6-byte frame
	f.Add(gobFrame(f, Envelope{From: "a", To: "b", Kind: "k", Payload: []byte("old")}))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		env, size, err := readFrame(r, new(frameNames))
		if err != nil {
			if !sameEnvelope(env, Envelope{}) || size != 0 {
				t.Fatalf("partial value %+v (size %d) beside error %v", env, size, err)
			}
			return
		}
		// Every decoded field was cut out of the frame it arrived in; a
		// length prefix cannot conjure more.
		if size > len(data) || len(env.From)+len(env.To)+len(env.Kind)+len(env.Payload) > size {
			t.Fatalf("%d bytes of fields from a %d-byte frame in %d bytes of input", len(env.From)+len(env.To)+len(env.Kind)+len(env.Payload), size, len(data))
		}
		// An accepted frame decodes again, alone, to the same envelope
		// (nothing after its last field belonged to it) and re-encodes to
		// an envelope-equal frame.
		again, size2, err := readOne(data[:size])
		if err != nil || size2 != size || !sameEnvelope(again, env) {
			t.Fatalf("accepted frame does not re-read: %+v size %d, %v", again, size2, err)
		}
		back, _, err := readOne(mustFrame(t, env))
		if err != nil || !sameEnvelope(back, env) {
			t.Fatalf("re-encoded frame reads as %+v, %v", back, err)
		}
	})
}

// TestFramePrefixProperty: every strict prefix of a valid frame — and of
// its body, should a header ever vouch for one — is an error with a zero
// envelope.
func TestFramePrefixProperty(t *testing.T) {
	frame := mustFrame(t, Envelope{From: "from", To: "to", Kind: "kind", Payload: bytes.Repeat([]byte("p"), 300)})
	for cut := 0; cut < len(frame); cut++ {
		env, size, err := readOne(frame[:cut])
		if err == nil || !sameEnvelope(env, Envelope{}) || size != 0 {
			t.Fatalf("prefix of %d/%d bytes: %+v, size %d, err %v", cut, len(frame), env, size, err)
		}
		if cut >= frameHeader {
			if env, err := decodeEnvelope(frame[frameHeader:cut], new(frameNames)); err == nil || !sameEnvelope(env, Envelope{}) {
				t.Fatalf("body prefix of %d bytes: %+v, err %v", cut-frameHeader, env, err)
			}
		}
	}
}
