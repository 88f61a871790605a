// Allocation-free encoding for the two hot serializations of the
// authorize path, each appending into a caller-owned buffer:
//
//   - the signed form of a request component (appendRequestBody), hashed
//     and signed on every co-signature and re-encoded on every
//     verification: a wirefmt statement, kind tag first, like every
//     certificate's signed form (pki.Fingerprint hashes those);
//   - the decision wire form the benchmark's in-process workloads encode
//     every decision into (benchmark/inproc.go), byte-identical to
//     encoding/json over the equivalent struct (including its HTML
//     escaping and base64 []byte convention), pinned by equivalence tests.
//
// The decode side is decode.go.

package authz

import (
	"encoding/base64"
	"unicode/utf8"

	"jointadmin/internal/wirefmt"
)

const hexDigits = "0123456789abcdef"

// jsonSafe marks the ASCII bytes encoding/json emits verbatim inside a
// string: everything printable except the JSON metacharacters and the
// HTML-escaped <, >, & (Marshal's default HTMLEscape behavior).
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return
}()

// appendJSONString appends s as a JSON string literal, byte-identical
// to encoding/json's encoder: \", \\, \b, \f, \n, \r, \t, \u00XX for
// other control bytes and for < > &, � for invalid UTF-8, and U+2028 /
// U+2029 escaped for script-embedding safety.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == ' ' || c == ' ' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// appendBase64 appends b std-base64-encoded as a JSON string (the
// encoding/json convention for []byte).
func appendBase64(dst, b []byte) []byte {
	dst = append(dst, '"')
	n := base64.StdEncoding.EncodedLen(len(b))
	off := len(dst)
	if cap(dst)-off < n {
		grown := make([]byte, off, 2*cap(dst)+n)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+n]
	base64.StdEncoding.Encode(dst[off:], b)
	return append(dst, '"')
}

// tagRequest is the kind tag of a request component's signed form. No
// certificate kind uses it, so a user's signature over a request is never
// a certificate.
const tagRequest = "request"

// appendRequestBody appends the signed form of a UserRequest: its kind
// tag, then user, at, op, object and payload, strings and the payload
// length-prefixed and at as eight big-endian bytes. With a caller-owned
// dst it allocates only when the buffer must grow.
func appendRequestBody(dst []byte, r *UserRequest) []byte {
	dst = wirefmt.AppendString(dst, tagRequest)
	dst = wirefmt.AppendString(dst, r.User)
	dst = wirefmt.AppendInt64(dst, int64(r.At))
	dst = wirefmt.AppendString(dst, string(r.Op))
	dst = wirefmt.AppendString(dst, r.Object)
	return wirefmt.AppendBytes(dst, r.Payload)
}

// AppendDecisionJSON appends the wire encoding of a Decision and
// returns the extended buffer. The output is byte-identical to
// json.Marshal of the equivalent struct with keys allowed, group,
// reason, deniedStep, requestId and data (all but allowed omitempty;
// data base64 per the []byte convention). The proof is deliberately
// not serialized — derivation traces go to the audit log. With a
// pre-sized dst the call performs zero allocations, so a caller that
// encodes every decision adds nothing to the decision path's garbage.
func AppendDecisionJSON(dst []byte, d *Decision) []byte {
	dst = append(dst, `{"allowed":`...)
	if d.Allowed {
		dst = append(dst, `true`...)
	} else {
		dst = append(dst, `false`...)
	}
	if d.Group != "" {
		dst = append(dst, `,"group":`...)
		dst = appendJSONString(dst, d.Group)
	}
	if d.Reason != "" {
		dst = append(dst, `,"reason":`...)
		dst = appendJSONString(dst, d.Reason)
	}
	if d.DeniedStep != "" {
		dst = append(dst, `,"deniedStep":`...)
		dst = appendJSONString(dst, d.DeniedStep)
	}
	if d.RequestID != "" {
		dst = append(dst, `,"requestId":`...)
		dst = appendJSONString(dst, d.RequestID)
	}
	if len(d.Data) > 0 {
		dst = append(dst, `,"data":`...)
		dst = appendBase64(dst, d.Data)
	}
	return append(dst, '}')
}
