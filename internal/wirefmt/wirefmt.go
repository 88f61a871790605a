// Package wirefmt is the one binary encoding the request path speaks:
// transport frames, daemon commands and daemon replies are each a
// leading version byte followed by fields in a fixed order, every
// variable-length field prefixed by its length as a uvarint.
//
//	message := version(1 byte) field*
//	field   := uvarint(n) n bytes | single byte | uvarint(count) field*
//
// Encoding appends to a caller-owned slice; decoding walks a byte slice
// with a Reader. Neither side reflects, keeps state between messages or
// allocates before a length has been checked against the bytes that
// actually remain, so a hostile length prefix costs nothing. The field
// order of each message lives with its type (transport.Envelope,
// daemon.Command, daemon.Reply); this package only knows fields.
package wirefmt

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Version is the leading byte of every message. A decoder refuses any
// other value, so peers built around a different layout fail closed
// instead of misreading each other.
const Version = 1

// Decoding errors. Every failure of a Reader wraps one of the two.
var (
	// ErrMalformed reports a message that ends early, carries a length
	// larger than what remains, or has bytes after its last field.
	ErrMalformed = errors.New("wirefmt: malformed message")
	// ErrVersion reports a leading byte other than Version.
	ErrVersion = errors.New("wirefmt: unsupported version")
)

// AppendString appends s as a length-prefixed field.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends p as a length-prefixed field.
func AppendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// AppendCount appends the element count of a list (see Reader.Count).
func AppendCount(b []byte, n int) []byte {
	return binary.AppendUvarint(b, uint64(n))
}

// AppendBool appends v as a single byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Reader decodes one message. The first failure sticks: later reads
// return zero values and Finish reports it, so a decoder reads its
// fields in order and checks once.
type Reader struct {
	buf []byte
	err error
}

// NewReader starts decoding msg and consumes its version byte.
func NewReader(msg []byte) Reader {
	r := Reader{buf: msg}
	if v := r.readByte(); r.err == nil && v != Version {
		r.err = fmt.Errorf("%w %d (want %d)", ErrVersion, v, Version)
	}
	return r
}

// readByte reads a single byte.
func (r *Reader) readByte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.buf) == 0 {
		r.err = fmt.Errorf("%w: truncated", ErrMalformed)
		return 0
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b
}

// Bool reads a single-byte field that must be 0 or 1.
func (r *Reader) Bool() bool {
	b := r.readByte()
	if r.err == nil && b > 1 {
		r.err = fmt.Errorf("%w: bool byte %#x", ErrMalformed, b)
	}
	return b == 1
}

// Count reads an element count for a list whose elements each occupy at
// least one byte, refusing a count the remaining bytes cannot hold — the
// caller may size a slice by it.
func (r *Reader) Count() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		r.err = fmt.Errorf("%w: bad varint", ErrMalformed)
		return 0
	}
	r.buf = r.buf[n:]
	if v > uint64(len(r.buf)) {
		r.err = fmt.Errorf("%w: count %d exceeds the %d bytes left", ErrMalformed, v, len(r.buf))
		return 0
	}
	return int(v)
}

// Bytes reads a length-prefixed field. The result aliases the message
// (nil when the field is empty); nothing is copied or allocated.
func (r *Reader) Bytes() []byte {
	n := r.Count() // a field of n bytes needs n bytes left: the same bound
	if r.err != nil || n == 0 {
		return nil
	}
	p := r.buf[:n:n]
	r.buf = r.buf[n:]
	return p
}

// String reads a length-prefixed field into a string of its own.
func (r *Reader) String() string { return string(r.Bytes()) }

// Finish reports the first decoding failure, or ErrMalformed when bytes
// follow the last field.
func (r *Reader) Finish() error {
	if r.err == nil && len(r.buf) != 0 {
		r.err = fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(r.buf))
	}
	return r.err
}
