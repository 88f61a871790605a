// Allocation-free JSON encoding for the two hot serializations of the
// authorize path: the canonical signed request body (hashed and signed
// on every co-signature, re-encoded on every verification) and the
// decision wire form consumers poll at load-harness rates. Both append
// into caller-owned buffers and produce output byte-identical to
// encoding/json over the equivalent struct (including its HTML escaping
// and base64 []byte convention) — pinned by equivalence tests — because
// the request body is under RSA signatures: a single divergent byte
// invalidates every signature ever produced. The decode side is
// decode.go; the certificate cache keys are not JSON at all (a hash of
// each certificate's binary fields, pki.Fingerprint).

package authz

import (
	"encoding/base64"
	"strconv"
	"unicode/utf8"
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

// appendRequestBody appends the canonical signed payload of a
// UserRequest: the exact bytes requestBody has always produced (the
// json.Marshal of the user/at/op/object/payload struct), so existing
// signatures keep verifying. With a caller-owned dst it allocates only
// when the buffer must grow.
func appendRequestBody(dst []byte, r *UserRequest) []byte {
	dst = append(dst, `{"user":`...)
	dst = appendJSONString(dst, r.User)
	dst = append(dst, `,"at":`...)
	dst = strconv.AppendInt(dst, int64(r.At), 10)
	dst = append(dst, `,"op":`...)
	dst = appendJSONString(dst, string(r.Op))
	dst = append(dst, `,"object":`...)
	dst = appendJSONString(dst, r.Object)
	if len(r.Payload) > 0 {
		dst = append(dst, `,"payload":`...)
		dst = appendBase64(dst, r.Payload)
	}
	return append(dst, '}')
}

// AppendDecisionJSON appends the wire encoding of a Decision and
// returns the extended buffer. The output is byte-identical to
// json.Marshal of the equivalent struct with keys allowed, group,
// reason, deniedStep, requestId and data (all but allowed omitempty;
// data base64 per the []byte convention). The proof is deliberately
// not serialized — derivation traces go to the audit log. With a
// pre-sized dst the call performs zero allocations, which is what lets
// the load harness drain decisions at six-figure RPS without feeding
// the garbage collector.
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
