package wirefmt

import (
	"bytes"
	"errors"
	"testing"
)

func TestFieldsRoundTrip(t *testing.T) {
	msg := []byte{Version}
	msg = AppendString(msg, "")
	msg = AppendString(msg, "naïve \xff\x00")
	msg = AppendBytes(msg, bytes.Repeat([]byte{7}, 300)) // two-byte length prefix
	msg = AppendBool(msg, true)
	msg = AppendCount(msg, 2)
	msg = AppendString(msg, "a")
	msg = AppendString(msg, "b")
	msg = AppendBool(msg, false)

	r := NewReader(msg)
	if s := r.String(); s != "" {
		t.Errorf("empty string read as %q", s)
	}
	if s := r.String(); s != "naïve \xff\x00" {
		t.Errorf("string read as %q", s)
	}
	p := r.Bytes()
	if !bytes.Equal(p, bytes.Repeat([]byte{7}, 300)) {
		t.Errorf("bytes field: %d bytes", len(p))
	}
	if start := 1 + 1 + 1 + len("naïve \xff\x00") + 2; &p[0] != &msg[start] {
		t.Error("Bytes copied the field; it must alias the message")
	}
	if !r.Bool() {
		t.Error("bool read as false")
	}
	if n := r.Count(); n != 2 || r.String() != "a" || r.String() != "b" {
		t.Errorf("list of %d", n)
	}
	if r.Bool() {
		t.Error("bool read as true")
	}
	if err := r.Finish(); err != nil {
		t.Fatal(err)
	}
}

func TestReaderErrorsStick(t *testing.T) {
	for _, tc := range []struct {
		name string
		msg  []byte
		read func(r *Reader)
		want error
	}{
		{"empty message", nil, func(r *Reader) {}, ErrMalformed},
		{"other version", []byte{Version + 1, 0}, func(r *Reader) { _ = r.String() }, ErrVersion},
		{"length past the end", []byte{Version, 5, 'a', 'b'}, func(r *Reader) { _ = r.String() }, ErrMalformed},
		{"length of 2^64-1", append([]byte{Version}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01), func(r *Reader) { r.Bytes() }, ErrMalformed},
		{"varint cut short", []byte{Version, 0x80}, func(r *Reader) { _ = r.String() }, ErrMalformed},
		{"varint overflow", append([]byte{Version}, bytes.Repeat([]byte{0xff}, 11)...), func(r *Reader) { r.Count() }, ErrMalformed},
		{"count beyond the bytes left", []byte{Version, 3, 0, 0}, func(r *Reader) { r.Count() }, ErrMalformed},
		{"bool of 2", []byte{Version, 2}, func(r *Reader) { r.Bool() }, ErrMalformed},
	} {
		r := NewReader(tc.msg)
		tc.read(&r)
		// Whatever is read after the failure is zero, and the first
		// failure is the one reported.
		if s, p, n, b := r.String(), r.Bytes(), r.Count(), r.Bool(); s != "" || p != nil || n != 0 || b {
			t.Errorf("%s: reads after the failure returned %q %v %d %v", tc.name, s, p, n, b)
		}
		if err := r.Finish(); !errors.Is(err, tc.want) {
			t.Errorf("%s: %v, want %v", tc.name, err, tc.want)
		}
	}
	r := NewReader([]byte{Version, 0, 0})
	_ = r.String()
	if err := r.Finish(); !errors.Is(err, ErrMalformed) {
		t.Errorf("a byte after the last field: %v, want ErrMalformed", err)
	}
}

// TestAppendInt64: eight big-endian bytes, two's complement for a
// negative value, so every int64 has its own fixed-width field.
func TestAppendInt64(t *testing.T) {
	for _, tc := range []struct {
		v    int64
		want []byte
	}{
		{0, []byte{0, 0, 0, 0, 0, 0, 0, 0}},
		{258, []byte{0, 0, 0, 0, 0, 0, 1, 2}},
		{-1, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}},
		{-1 << 63, []byte{0x80, 0, 0, 0, 0, 0, 0, 0}},
	} {
		if got := AppendInt64([]byte{7}, tc.v); !bytes.Equal(got, append([]byte{7}, tc.want...)) {
			t.Errorf("AppendInt64(%d) = %x, want 07%x", tc.v, got, tc.want)
		}
	}
}
