package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"jointadmin/internal/obs"
	"jointadmin/internal/wirefmt"
)

// mustFrame encodes one envelope into a frame of its own.
func mustFrame(t testing.TB, env Envelope) []byte {
	t.Helper()
	f, err := appendFrame(nil, env, nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// rawFrame wraps body in the 4-byte length header, whatever body holds.
func rawFrame(body []byte) []byte {
	f := binary.BigEndian.AppendUint32(nil, uint32(len(body)))
	return append(f, body...)
}

// gobFrame is a frame as the transport wrote it before the binary codec:
// the same header around gob(Envelope).
func gobFrame(t testing.TB, env Envelope) []byte {
	t.Helper()
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(env); err != nil {
		t.Fatal(err)
	}
	return rawFrame(body.Bytes())
}

func readOne(data []byte) (Envelope, int, error) {
	return readFrame(bufio.NewReader(bytes.NewReader(data)), new(frameNames))
}

func sameEnvelope(a, b Envelope) bool {
	return a.From == b.From && a.To == b.To && a.Kind == b.Kind && bytes.Equal(a.Payload, b.Payload)
}

func TestFrameRoundTrip(t *testing.T) {
	big := bytes.Repeat([]byte{0xff, 0x00, 0xc3, 0x28}, 80<<10) // not UTF-8, > the read buffer
	for _, env := range []Envelope{
		{},
		{From: "a", To: "b", Kind: "cmd@127.0.0.1:4242", Payload: []byte(`{"x":1}`)},
		{From: "writer", Kind: "repl.snapshot", Payload: big},
		{To: "only-to"},
	} {
		frame := mustFrame(t, env)
		got, size, err := readOne(frame)
		if err != nil {
			t.Fatalf("%+v: %v", env, err)
		}
		if size != len(frame) || !sameEnvelope(got, env) {
			t.Errorf("round trip of %q/%q/%q (%d payload bytes): got %q/%q/%q (%d), size %d of %d",
				env.From, env.To, env.Kind, len(env.Payload), got.From, got.To, got.Kind, len(got.Payload), size, len(frame))
		}
	}
}

// TestFrameStream reads back-to-back frames through one buffered reader,
// as readLoop does when a peer pipelines.
func TestFrameStream(t *testing.T) {
	var stream []byte
	for i := 0; i < 50; i++ {
		stream = append(stream, mustFrame(t, Envelope{From: "a", Kind: "seq", Payload: bytes.Repeat([]byte{byte(i)}, i*100)})...)
	}
	r := bufio.NewReaderSize(bytes.NewReader(stream), readBufSize)
	for i := 0; i < 50; i++ {
		env, _, err := readFrame(r, new(frameNames))
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if len(env.Payload) != i*100 || (i > 0 && env.Payload[0] != byte(i)) {
			t.Fatalf("frame %d: %d payload bytes", i, len(env.Payload))
		}
	}
	if _, _, err := readFrame(r, new(frameNames)); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

func TestFrameRejects(t *testing.T) {
	good := mustFrame(t, Envelope{From: "a", To: "b", Kind: "k", Payload: []byte("payload")})
	for _, tc := range []struct {
		name   string
		data   []byte
		reason string // metricFrameErrors label; "" for a connection failure
	}{
		{"length prefix beyond the limit", binary.BigEndian.AppendUint32(nil, maxFrame+1), "oversize"},
		{"plain text", []byte("GET / HTTP/1.1\r\n\r\n"), "oversize"},
		{"field longer than the frame", rawFrame([]byte{wirefmt.Version, 200, 'a', 'b'}), "malformed"},
		{"field length of 2^63", rawFrame(append([]byte{wirefmt.Version}, binary.AppendUvarint(nil, 1<<63)...)), "malformed"},
		{"bytes after the payload", rawFrame(append(bytes.Clone(good[frameHeader:]), 0)), "malformed"},
		{"empty body", rawFrame(nil), "malformed"},
		{"gob frame", gobFrame(t, Envelope{From: "a", To: "b", Kind: "k", Payload: []byte("payload")}), "version"},
		{"version 2", rawFrame(append([]byte{2}, good[frameHeader+1:]...)), "version"},
		{"cut inside the header", good[:2], ""},
		{"cut inside the body", good[:len(good)-3], ""},
		{"nothing", nil, ""},
	} {
		env, size, err := readOne(tc.data)
		if err == nil {
			t.Errorf("%s: accepted as %+v", tc.name, env)
			continue
		}
		if !sameEnvelope(env, Envelope{}) || size != 0 {
			t.Errorf("%s: partial value %+v (size %d) beside error %v", tc.name, env, size, err)
		}
		if got := frameErrorReason(err); got != tc.reason {
			t.Errorf("%s: reason %q (%v), want %q", tc.name, got, err, tc.reason)
		}
	}
}

func TestAppendFrameRefusesOversize(t *testing.T) {
	_, err := appendFrame(nil, Envelope{Payload: make([]byte, maxFrame)}, nil)
	if !errors.Is(err, errFrameOversize) {
		t.Fatalf("appendFrame of a %d-byte payload: %v, want errFrameOversize", maxFrame, err)
	}
}

// TestTCPFrameErrorsCountedAndIsolated: a connection that breaks the
// frame format is counted by reason and closed, and that is all that
// happens — a healthy peer of the same node keeps exchanging frames, and
// a peer that merely hangs up (even mid-frame) is not counted.
func TestTCPFrameErrorsCountedAndIsolated(t *testing.T) {
	reg := obs.NewRegistry()
	n, err := ListenTCP("N", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Instrument(reg)
	healthy, err := ListenTCP("H", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	healthy.AddPeer("N", n.Addr())
	n.AddPeer("H", healthy.Addr())

	exchange := func(step string) {
		t.Helper()
		if err := healthy.Send("N", "ping", []byte(step)); err != nil {
			t.Fatalf("%s: healthy send: %v", step, err)
		}
		env, err := n.RecvTimeout(2 * time.Second)
		if err != nil || env.From != "H" || string(env.Payload) != step {
			t.Fatalf("%s: node received %+v, %v", step, env, err)
		}
		if err := n.Send("H", "pong", env.Payload); err != nil {
			t.Fatalf("%s: node send: %v", step, err)
		}
		if env, err := healthy.RecvTimeout(2 * time.Second); err != nil || string(env.Payload) != step {
			t.Fatalf("%s: healthy received %+v, %v", step, env, err)
		}
	}
	exchange("before")

	good := mustFrame(t, Envelope{From: "X", To: "N", Kind: "k", Payload: []byte("fine")})
	for _, tc := range []struct {
		name, reason string
		data         []byte
	}{
		{"garbage", "oversize", []byte("\xde\xad\xbe\xef garbage garbage garbage")},
		{"inner length beyond the frame", "malformed", rawFrame([]byte{wirefmt.Version, 1, 'X', 0xff, 0xff, 0x03, 'N'})},
		{"old gob frame", "version", gobFrame(t, Envelope{From: "X", To: "N", Kind: "k", Payload: []byte("old")})},
	} {
		conn, err := net.Dial("tcp", n.Addr())
		if err != nil {
			t.Fatal(err)
		}
		// A good frame first: the connection is live, and the bad frame
		// behind it in the same segment is still found.
		if _, err := conn.Write(append(bytes.Clone(good), tc.data...)); err != nil {
			t.Fatal(err)
		}
		if env, err := n.RecvTimeout(2 * time.Second); err != nil || env.From != "X" {
			t.Fatalf("%s: good frame ahead of the bad one: %+v, %v", tc.name, env, err)
		}
		// The node hangs up on this connection: the read ends in EOF (or
		// a reset, when unread bytes were left behind).
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		_, err = conn.Read(make([]byte, 1))
		var ne net.Error
		if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
			t.Fatalf("%s: connection still open after the bad frame (read: %v)", tc.name, err)
		}
		conn.Close()
		if got := reg.Counter(metricFrameErrors, "reason", tc.reason).Value(); got != 1 {
			t.Errorf("%s: %s{reason=%q} = %d, want 1", tc.name, metricFrameErrors, tc.reason, got)
		}
		exchange("after " + tc.name)
	}

	// Hanging up is not a frame error: once cleanly between frames, once
	// in the middle of one.
	for _, data := range [][]byte{good, good[:len(good)-2]} {
		conn, err := net.Dial("tcp", n.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(data); err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	if env, err := n.RecvTimeout(2 * time.Second); err != nil || env.From != "X" {
		t.Fatalf("frame before a clean hang-up: %+v, %v", env, err)
	}
	exchange("after hang-ups")
	n.Close() // waits for every read loop, so the counts below are final
	var total int64
	for _, c := range reg.Snapshot().Counters {
		if strings.HasPrefix(c.Name, metricFrameErrors+"{") {
			total += c.Value
		}
	}
	if total != 3 {
		t.Errorf("%s over all reasons = %d, want 3 (hang-ups are not frame errors)", metricFrameErrors, total)
	}
}

// payloadMessage is a Message whose bytes are a fixed payload.
type payloadMessage []byte

func (p payloadMessage) AppendTo(b []byte) []byte { return append(b, p...) }

// TestAppendFrameMessageMatchesBytes: a payload a Message appends in
// place goes on the wire as the same bytes as the payload passed whole,
// on both sides of every length-prefix width up to the frame limit.
func TestAppendFrameMessageMatchesBytes(t *testing.T) {
	for _, n := range []int{0, 1, 127, 128, 2048, 16383, 16384, 1<<21 - 1, 1 << 21} {
		env := Envelope{From: "client-7", To: "follower-1", Kind: "cmd", Payload: bytes.Repeat([]byte{0xa5}, n)}
		want := mustFrame(t, env)
		got, err := appendFrame([]byte("prefix"), Envelope{From: env.From, To: env.To, Kind: env.Kind}, payloadMessage(env.Payload))
		if err != nil {
			t.Fatalf("%d-byte message: %v", n, err)
		}
		if !bytes.Equal(got[len("prefix"):], want) || string(got[:len("prefix")]) != "prefix" {
			t.Fatalf("%d-byte message: frame differs from the bytes form (%d vs %d bytes)", n, len(got)-len("prefix"), len(want))
		}
	}
	if _, err := appendFrame(nil, Envelope{}, payloadMessage(make([]byte, maxFrame))); !errors.Is(err, errFrameOversize) {
		t.Fatalf("a %d-byte message: %v, want errFrameOversize", maxFrame, err)
	}
}

// TestFrameAllocBudget pins the codec's allocations for a 2 KB payload:
// encoding into a warm pooled buffer allocates nothing, from a byte
// payload or from a Message, and neither does decoding a connection's
// next frame once its body buffer is back in the pool and its names
// repeat.
func TestFrameAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	env := Envelope{From: "client-7", To: "follower-1", Kind: "cmd", Payload: make([]byte, 2048)}
	buf := new([]byte)
	*buf = mustFrame(t, env) // warm: the buffer has its capacity
	var msg Message = payloadMessage(env.Payload)
	for _, m := range []Message{nil, msg} {
		if allocs := testing.AllocsPerRun(100, func() {
			frame, err := appendFrame((*buf)[:0], env, m)
			if err != nil {
				t.Fatal(err)
			}
			*buf = frame
		}); allocs != 0 {
			t.Errorf("appendFrame (message %v) allocates %.0f/op into a warm buffer, want 0", m != nil, allocs)
		}
	}

	frame := mustFrame(t, env)
	src := bytes.NewReader(frame)
	r := bufio.NewReaderSize(src, readBufSize)
	var names frameNames
	if allocs := testing.AllocsPerRun(100, func() {
		src.Reset(frame)
		r.Reset(src)
		env, _, err := readFrame(r, &names)
		if err != nil {
			t.Fatal(err)
		}
		env.Release()
	}); allocs != 0 {
		t.Errorf("readFrame allocates %.0f/op for a released 2 KB frame with repeated names, want 0", allocs)
	}
}

// TestReleaseRecyclesBody: a released envelope's body is the next
// frame's, and an envelope that is never released keeps its bytes.
func TestReleaseRecyclesBody(t *testing.T) {
	a := mustFrame(t, Envelope{From: "x", Kind: "k", Payload: []byte("first payload")})
	b := mustFrame(t, Envelope{From: "x", Kind: "k", Payload: []byte("other payload")})
	r := bufio.NewReader(bytes.NewReader(append(append(bytes.Clone(a), b...), a...)))
	var names frameNames
	kept, _, err := readFrame(r, &names)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := readFrame(r, &names)
	if err != nil {
		t.Fatal(err)
	}
	second.Release()
	if second.Payload != nil {
		t.Errorf("Release left Payload %q", second.Payload)
	}
	second.Release() // a second Release of the same copy is a no-op
	if _, _, err := readFrame(r, &names); err != nil {
		t.Fatal(err)
	}
	if string(kept.Payload) != "first payload" {
		t.Errorf("an unreleased payload changed to %q", kept.Payload)
	}
	if kept.From != "x" || kept.Kind != "k" {
		t.Errorf("names %q/%q", kept.From, kept.Kind)
	}
}

var benchEnvelope Envelope

// BenchmarkFrameCodec is one frame round trip, encode into a reused
// buffer plus decode through a connection-style buffered reader, for a
// 2 KB payload (the size of an authorize command); the decoded body goes
// back to the pool, as the serve pipeline and the mux client hand theirs
// back once decoded.
func BenchmarkFrameCodec(b *testing.B) {
	env := Envelope{From: "client-7", To: "follower-1", Kind: "cmd", Payload: make([]byte, 2048)}
	var buf []byte
	src := bytes.NewReader(nil)
	r := bufio.NewReaderSize(src, readBufSize)
	var names frameNames
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, err := appendFrame(buf[:0], env, nil)
		if err != nil {
			b.Fatal(err)
		}
		buf = frame
		src.Reset(frame)
		r.Reset(src)
		if benchEnvelope, _, err = readFrame(r, &names); err != nil {
			b.Fatal(err)
		}
		benchEnvelope.Release()
	}
	b.SetBytes(int64(len(buf)))
}
