package daemon

import (
	"bytes"
	"errors"
	"reflect"
	"strings"
	"testing"

	"jointadmin/internal/wirefmt"
)

// codecCommands cover every field, the empty command, an empty Signers
// list beside set scalars, and bytes JSON would have escaped or replaced.
var codecCommands = []Command{
	{},
	{Cmd: "stats"},
	{ID: "a1b2c3-17", Cmd: "write", Group: "G_write", Object: "O", Data: "v2", Signers: []string{"alice", "bob"}},
	{ID: "x-1", Cmd: "mutate", Op: "delegate", Group: "G_read", Data: "alice>bob:0:read"},
	{ID: "x-2", Cmd: "read", Signers: []string{"bob"}, Delegated: true},
	{ID: "x-3", Cmd: "join", Domain: "D4"},
	{ID: "x-4", Cmd: "authorize", Data: `{"certs":["é"],"sig":"` + strings.Repeat("A", 2048) + `"}`},
	{ID: "x-5", Cmd: "write", Data: "\xff\xfe\x00<&>  \"quoted\"\n", Signers: []string{"", "\xc3\x28"}},
}

var codecReplies = []Reply{
	{},
	{ID: "a1b2c3-17", OK: true, Detail: "approved via G_write [P-000001]"},
	{ID: "x-2", Detail: "denied: a chain link for bob in G_read is revoked as of t12"},
	{ID: "x-3", OK: true, Data: strings.Repeat("audit line\n", 4000)},
	{ID: "x-4", OK: true, Data: "\xff\xfe\x00<&> "},
}

func TestCommandCodecRoundTrip(t *testing.T) {
	for _, cmd := range codecCommands {
		got, err := decodeCommand(appendCommand(nil, cmd))
		if err != nil {
			t.Fatalf("%+v: %v", cmd, err)
		}
		if !reflect.DeepEqual(got, cmd) {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, cmd)
		}
	}
	// An empty, non-nil Signers list has no wire form of its own: it
	// arrives as nil, which every handler treats alike.
	got, err := decodeCommand(appendCommand(nil, Command{Cmd: "read", Signers: []string{}}))
	if err != nil || got.Signers != nil || got.Cmd != "read" {
		t.Errorf("empty Signers: %+v, %v", got, err)
	}
}

func TestReplyCodecRoundTrip(t *testing.T) {
	for _, reply := range codecReplies {
		got, err := decodeReply(encodeReply(reply))
		if err != nil {
			t.Fatalf("%+v: %v", reply, err)
		}
		if got != reply {
			t.Errorf("round trip:\n got %+v\nwant %+v", got, reply)
		}
	}
}

// TestCodecPrefixProperty: every strict prefix of a valid encoding is an
// error with a zero value, and so is a valid encoding with a byte added.
func TestCodecPrefixProperty(t *testing.T) {
	for _, cmd := range codecCommands {
		msg := appendCommand(nil, cmd)
		for cut := 0; cut < len(msg); cut++ {
			if got, err := decodeCommand(msg[:cut]); err == nil || !reflect.DeepEqual(got, Command{}) {
				t.Fatalf("command prefix %d/%d: %+v, %v", cut, len(msg), got, err)
			}
		}
		if got, err := decodeCommand(append(msg, 0)); !errors.Is(err, wirefmt.ErrMalformed) || !reflect.DeepEqual(got, Command{}) {
			t.Fatalf("command with a trailing byte: %+v, %v", got, err)
		}
	}
	for _, reply := range codecReplies {
		msg := encodeReply(reply)
		for cut := 0; cut < len(msg); cut++ {
			if got, err := decodeReply(msg[:cut]); err == nil || got != (Reply{}) {
				t.Fatalf("reply prefix %d/%d: %+v, %v", cut, len(msg), got, err)
			}
		}
		if got, err := decodeReply(append(msg, 0)); !errors.Is(err, wirefmt.ErrMalformed) || got != (Reply{}) {
			t.Fatalf("reply with a trailing byte: %+v, %v", got, err)
		}
	}
}

func TestCodecRejects(t *testing.T) {
	good := appendCommand(nil, Command{ID: "id", Cmd: "read", Signers: []string{"carol"}})
	for _, tc := range []struct {
		name string
		msg  []byte
		want error
	}{
		{"JSON command", []byte(`{"id":"x","cmd":"read"}`), wirefmt.ErrVersion},
		{"version 0", append([]byte{0}, good[1:]...), wirefmt.ErrVersion},
		{"4 GB ID in 6 bytes", []byte{wirefmt.Version, 0xff, 0xff, 0xff, 0xff, 0x0f}, wirefmt.ErrMalformed},
		{"a million signers in 1 byte", append(appendCommand(nil, Command{})[:7], 0xc0, 0x84, 0x3d, 0), wirefmt.ErrMalformed},
		{"bool byte 2", append(bytes.Clone(good[:len(good)-2]), 2, 0), wirefmt.ErrMalformed},
	} {
		if got, err := decodeCommand(tc.msg); !errors.Is(err, tc.want) || !reflect.DeepEqual(got, Command{}) {
			t.Errorf("%s: %+v, %v; want %v", tc.name, got, err, tc.want)
		}
	}
	if got, err := decodeReply([]byte(`{"ok":true}`)); !errors.Is(err, wirefmt.ErrVersion) || got != (Reply{}) {
		t.Errorf("JSON reply: %+v, %v", got, err)
	}
}

// TestCodecAllocBudget pins encoding a command into a caller's buffer at
// no allocation, encoding a reply at its one buffer, and decoding at one
// allocation per non-empty string (plus the Signers slice).
func TestCodecAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are inflated under -race")
	}
	cmd := Command{ID: "a1b2c3d4e5f6-1234", Cmd: "authorize", Data: strings.Repeat("x", 2048)}
	msg := appendCommand(nil, cmd)
	buf := make([]byte, 0, len(msg))
	if allocs := testing.AllocsPerRun(100, func() { benchBody = appendCommand(buf[:0], cmd) }); allocs != 0 {
		t.Errorf("appendCommand allocates %.0f/op into a warm buffer, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { benchCommand, _ = decodeCommand(msg) }); allocs != 3 {
		t.Errorf("decodeCommand allocates %.0f/op for 3 non-empty fields, want 3", allocs)
	}
	joint := appendCommand(nil, Command{ID: "id", Cmd: "write", Data: "v2", Signers: []string{"alice", "bob"}})
	if allocs := testing.AllocsPerRun(100, func() { benchCommand, _ = decodeCommand(joint) }); allocs != 6 {
		t.Errorf("decodeCommand allocates %.0f/op for 3 fields + 2 signers + their slice, want 6", allocs)
	}
	r := Reply{ID: "a1b2c3d4e5f6-1234", OK: true, Detail: "approved via G_read [f1-000001]", Data: "genome v2"}
	if allocs := testing.AllocsPerRun(100, func() { benchBody = encodeReply(r) }); allocs != 1 {
		t.Errorf("encodeReply allocates %.0f/op, want 1", allocs)
	}
	reply := encodeReply(r)
	if allocs := testing.AllocsPerRun(100, func() { benchReply, _ = decodeReply(reply) }); allocs != 3 {
		t.Errorf("decodeReply allocates %.0f/op for 3 non-empty fields, want 3", allocs)
	}
}

var (
	benchBody    []byte
	benchCommand Command
	benchReply   Reply
)

// BenchmarkCommandCodec is what one authorize call pays for its command
// and reply on both ends: a command with 2 KB of Data appended into a
// reused buffer (the client appends into its pooled frame) and decoded,
// a short reply encoded and decoded.
func BenchmarkCommandCodec(b *testing.B) {
	cmd := Command{ID: "a1b2c3d4e5f6-1234", Cmd: "authorize", Data: strings.Repeat("x", 2048)}
	reply := Reply{ID: cmd.ID, OK: true, Detail: "approved via G_read [f1-000001] at epoch 0 watermark 12", Data: "genome v2"}
	var buf []byte
	b.ReportAllocs()
	var err error
	for i := 0; i < b.N; i++ {
		buf = appendCommand(buf[:0], cmd)
		if benchCommand, err = decodeCommand(buf); err != nil {
			b.Fatal(err)
		}
		benchBody = encodeReply(reply)
		if benchReply, err = decodeReply(benchBody); err != nil {
			b.Fatal(err)
		}
	}
}

func FuzzDecodeCommand(f *testing.F) {
	for _, cmd := range codecCommands {
		f.Add(appendCommand(nil, cmd))
	}
	f.Add([]byte{})
	f.Add([]byte(`{"id":"x","cmd":"read"}`))
	f.Add([]byte{wirefmt.Version, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, msg []byte) {
		cmd, err := decodeCommand(msg)
		if err != nil {
			if !reflect.DeepEqual(cmd, Command{}) {
				t.Fatalf("partial value %+v beside error %v", cmd, err)
			}
			return
		}
		// Fields are cut out of the message: no length prefix makes more.
		n := len(cmd.ID) + len(cmd.Cmd) + len(cmd.Group) + len(cmd.Object) + len(cmd.Data) + len(cmd.Op) + len(cmd.Domain) + len(cmd.Signers)
		for _, s := range cmd.Signers {
			n += len(s)
		}
		if n > len(msg) {
			t.Fatalf("%d bytes of fields from a %d-byte message", n, len(msg))
		}
		again, err := decodeCommand(appendCommand(nil, cmd))
		if err != nil || !reflect.DeepEqual(again, cmd) {
			t.Fatalf("accepted command does not round-trip: %+v vs %+v, %v", again, cmd, err)
		}
		if len(msg) > 0 {
			if got, err := decodeCommand(msg[:len(msg)-1]); err == nil {
				t.Fatalf("message minus its last byte still decodes: %+v", got)
			}
		}
	})
}

func FuzzDecodeReply(f *testing.F) {
	for _, reply := range codecReplies {
		f.Add(encodeReply(reply))
	}
	f.Add([]byte{})
	f.Add([]byte(`{"ok":true}`))
	f.Add([]byte{wirefmt.Version, 0, 1, 0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, msg []byte) {
		reply, err := decodeReply(msg)
		if err != nil {
			if reply != (Reply{}) {
				t.Fatalf("partial value %+v beside error %v", reply, err)
			}
			return
		}
		if n := len(reply.ID) + len(reply.Detail) + len(reply.Data); n > len(msg) {
			t.Fatalf("%d bytes of fields from a %d-byte message", n, len(msg))
		}
		if again, err := decodeReply(encodeReply(reply)); err != nil || again != reply {
			t.Fatalf("accepted reply does not round-trip: %+v vs %+v, %v", again, reply, err)
		}
		if len(msg) > 0 {
			if got, err := decodeReply(msg[:len(msg)-1]); err == nil {
				t.Fatalf("message minus its last byte still decodes: %+v", got)
			}
		}
	})
}
