// Single-pass decoding of the signed access request: the counterpart of
// encode.go's byte-exact encoders for the one JSON document a server
// parses on every request. Hand-rolled for the same reason: a reflective
// decoder resolves every key and field through reflect on every call.
// Dispatch is by switch, never through a function value, so the decoder,
// the request and the element buffers all stay on the stack. The document
// is a string — the Data of the authorize command that carried it — so
// the request is parsed where it arrived, with no copy made to parse it.

package authz

import (
	"encoding/base64"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"jointadmin/internal/acl"
	"jointadmin/internal/clock"
	"jointadmin/internal/pki"
)

// DecodeAccessRequest parses the JSON wire form of an AccessRequest in
// one pass, without reflection.
//
// It accepts the grammar json.Marshal emits for AccessRequest — keys in
// any order, arbitrary JSON whitespace, \u escapes (surrogate pairs
// joined, lone surrogates and invalid UTF-8 replaced by U+FFFD), null for
// any slice, std-base64 payloads — and on it yields a value
// reflect.DeepEqual to json.Unmarshal's, nil versus empty slices included.
// Every decoded string and slice owns its memory: nothing aliases data,
// so nothing a decision keeps (its audit entry, its proof, the
// certificate cache) holds on to the document.
//
// It is stricter than encoding/json and fails closed on what only a
// tampered or hand-mangled request contains: an unknown key, a key that
// matches only case-insensitively ("Identities"), a duplicated key, a key
// spelled with escapes, null for a string, number, bool or object field,
// a number that is not an in-range integer ("1e3", "1.0"), a payload
// written as a number array, a top-level null, and any bytes after the
// object. encoding/json accepts each of these (or silently drops the
// field); here each is an error.
func DecodeAccessRequest(data string) (AccessRequest, error) {
	d := decoder{data: data}
	var req AccessRequest
	if err := object(&d, &req); err != nil {
		return AccessRequest{}, err
	}
	if d.peek(); d.off != len(d.data) {
		return AccessRequest{}, d.fail("trailing bytes after the request")
	}
	return req, nil
}

// decodeError locates a decoding failure by byte offset.
type decodeError struct {
	off int
	msg string
}

func (e *decodeError) Error() string {
	return "authz: " + e.msg + " at offset " + strconv.Itoa(e.off)
}

// decoder is a cursor over one request document.
type decoder struct {
	data string
	off  int
}

func (d *decoder) fail(msg string) error { return &decodeError{off: d.off, msg: msg} }

// peek skips JSON whitespace and returns the next byte (0 at the end).
func (d *decoder) peek() byte {
	for ; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

func (d *decoder) expect(c byte) error {
	if d.peek() != c {
		return d.fail("expected " + strconv.QuoteRune(rune(c)))
	}
	d.off++
	return nil
}

// literal consumes the keyword word (true, false, null) if it is next.
func (d *decoder) literal(word string) bool {
	if d.peek() != word[0] || len(d.data)-d.off < len(word) || d.data[d.off:d.off+len(word)] != word {
		return false
	}
	d.off += len(word)
	return true
}

// member reads the next member's key and colon of an object, consuming
// the opening '{' when n is 0 (no member read yet). It reports ok false
// after consuming the closing '}'. Keys are compared verbatim: the
// request's keys are plain ASCII, so an escape in a key is an error.
func (d *decoder) member(n int) (key string, ok bool, err error) {
	if n == 0 {
		if err := d.expect('{'); err != nil {
			return "", false, err
		}
	}
	switch c := d.peek(); {
	case c == '}':
		d.off++
		return "", false, nil
	case n > 0 && c != ',':
		return "", false, d.fail("expected ',' or '}' in object")
	case n > 0:
		d.off++
	}
	if d.peek() != '"' {
		return "", false, d.fail("expected an object key")
	}
	start := d.off + 1
	for d.off = start; d.off < len(d.data); d.off++ {
		switch c := d.data[d.off]; {
		case c == '"':
			key := d.data[start:d.off]
			d.off++
			if err := d.expect(':'); err != nil {
				return "", false, err
			}
			return key, true, nil
		case c == '\\' || c < 0x20:
			return "", false, d.fail("escaped object key")
		}
	}
	return "", false, d.fail("unterminated object key")
}

// element reports whether element n of an array follows, consuming the
// opening '[' when n is 0, the separator before it, or the closing ']'.
func (d *decoder) element(n int) (bool, error) {
	if n == 0 {
		if err := d.expect('['); err != nil {
			return false, err
		}
	}
	switch c := d.peek(); {
	case c == ']':
		d.off++
		return false, nil
	case n == 0:
		return true, nil
	case c != ',':
		return false, d.fail("expected ',' or ']' in array")
	}
	d.off++
	return true, nil
}

// rawString reads a JSON string and returns it unescaped. It aliases
// data unless the string needed unescaping: callers that keep it copy it.
func (d *decoder) rawString() (string, error) {
	if d.peek() != '"' {
		return "", d.fail("expected a string")
	}
	d.off++
	start := d.off
	for d.off < len(d.data) {
		switch c := d.data[d.off]; {
		case c == '"':
			d.off++
			return d.data[start : d.off-1], nil
		case c == '\\' || c < 0x20:
			return d.unescape(start)
		case c < utf8.RuneSelf:
			d.off++
		default:
			r, size := utf8.DecodeRuneInString(d.data[d.off:])
			if r == utf8.RuneError && size == 1 {
				return d.unescape(start)
			}
			d.off += size
		}
	}
	return "", d.fail("unterminated string")
}

// unescape finishes the string begun at start into a fresh buffer,
// mirroring encoding/json's unquote; the bytes before d.off are clean.
// Nothing json.Marshal writes for a request's hex, names and base64
// needs it, so it is off the common path.
func (d *decoder) unescape(start int) (string, error) {
	b := append([]byte(nil), d.data[start:d.off]...)
	for d.off < len(d.data) {
		c := d.data[d.off]
		switch {
		case c == '"':
			d.off++
			return string(b), nil
		case c < 0x20:
			return "", d.fail("control character in string")
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRuneInString(d.data[d.off:])
			d.off += size
			b = utf8.AppendRune(b, r)
			continue
		case c != '\\':
			b = append(b, c)
			d.off++
			continue
		}
		if d.off+1 == len(d.data) {
			break
		}
		d.off += 2
		switch e := d.data[d.off-1]; e {
		case '"', '\\', '/':
			b = append(b, e)
		case 'b':
			b = append(b, '\b')
		case 'f':
			b = append(b, '\f')
		case 'n':
			b = append(b, '\n')
		case 'r':
			b = append(b, '\r')
		case 't':
			b = append(b, '\t')
		case 'u':
			r := d.hex4(d.off)
			if r < 0 {
				return "", d.fail("bad \\u escape")
			}
			d.off += 4
			if utf16.IsSurrogate(r) {
				r2 := rune(-1)
				if len(d.data)-d.off >= 6 && d.data[d.off] == '\\' && d.data[d.off+1] == 'u' {
					r2 = d.hex4(d.off + 2)
				}
				if r = utf16.DecodeRune(r, r2); r != utf8.RuneError {
					d.off += 6
				}
			}
			b = utf8.AppendRune(b, r)
		default:
			d.off -= 2
			return "", d.fail("bad escape")
		}
	}
	return "", d.fail("unterminated string")
}

// hex4 decodes the four hex digits at off, or returns -1.
func (d *decoder) hex4(off int) rune {
	if len(d.data)-off < 4 {
		return -1
	}
	var r rune
	for _, c := range []byte(d.data[off : off+4]) {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

func (d *decoder) str(dst *string) error {
	s, err := d.rawString()
	if err == nil {
		*dst = strings.Clone(s)
	}
	return err
}

// op decodes a permission, sharing the constants' memory for the three
// an ACL grants.
func (d *decoder) op(dst *acl.Permission) error {
	s, err := d.rawString()
	if err != nil {
		return err
	}
	switch acl.Permission(s) {
	case acl.Read:
		*dst = acl.Read
	case acl.Write:
		*dst = acl.Write
	case acl.Modify:
		*dst = acl.Modify
	default:
		*dst = acl.Permission(strings.Clone(s))
	}
	return nil
}

func (d *decoder) bool(dst *bool) error {
	switch {
	case d.literal("true"):
		*dst = true
	case d.literal("false"):
		*dst = false
	default:
		return d.fail("expected true or false")
	}
	return nil
}

// int64 decodes a JSON integer: the only number json.Marshal writes for
// the request's int and clock.Time fields.
func (d *decoder) int64() (int64, error) {
	d.peek()
	start := d.off
	neg := d.off < len(d.data) && d.data[d.off] == '-'
	if neg {
		d.off++
	}
	digits := d.off
	var u uint64
	for ; d.off < len(d.data) && '0' <= d.data[d.off] && d.data[d.off] <= '9'; d.off++ {
		if u > (1<<64-1)/10 {
			u = 1<<64 - 1 // saturate: out of range either way
			continue
		}
		u = u*10 + uint64(d.data[d.off]-'0')
	}
	var msg string
	switch n := d.off - digits; {
	case n == 0:
		msg = "expected an integer"
	case n > 1 && d.data[digits] == '0':
		msg = "leading zero in integer"
	case d.off < len(d.data) && (d.data[d.off] == '.' || d.data[d.off] == 'e' || d.data[d.off] == 'E'):
		msg = "non-integer number"
	case neg && u <= 1<<63:
		return -int64(u), nil
	case !neg && u < 1<<63:
		return int64(u), nil
	default:
		msg = "integer out of range"
	}
	d.off = start
	return 0, d.fail(msg)
}

func (d *decoder) time(dst *clock.Time) error {
	v, err := d.int64()
	*dst = clock.Time(v)
	return err
}

func (d *decoder) int(dst *int) error {
	v, err := d.int64()
	if err == nil && int64(int(v)) != v {
		return d.fail("integer out of range")
	}
	*dst = int(v)
	return err
}

// bytes decodes a std-base64 string (or null) as encoding/json does for
// []byte: "" is an empty non-nil slice, null is nil.
func (d *decoder) bytes(dst *[]byte) error {
	if d.literal("null") {
		*dst = nil
		return nil
	}
	s, err := d.rawString()
	if err != nil {
		return err
	}
	out, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return d.fail("bad base64 payload")
	}
	*dst = out
	return nil
}

// objectType is the struct types the request's JSON objects decode into.
type objectType interface {
	AccessRequest | UserRequest | pki.KeyInfo | pki.BoundSubject |
		pki.Identity | pki.ThresholdAttribute | pki.Attribute | pki.Delegation |
		pki.Signed[pki.Identity] | pki.Signed[pki.ThresholdAttribute] |
		pki.Signed[pki.Attribute] | pki.Signed[pki.Delegation]
}

// object decodes a JSON object into v member by member. Each member's
// field decoder returns the key's bit in the object's key set, so a
// repeated key is rejected (encoding/json would merge a repeated object
// or array into the first). Members encoding/json would leave unset may
// be absent.
func object[T objectType](d *decoder, v *T) error {
	var set uint16
	for n := 0; ; n++ {
		key, ok, err := d.member(n)
		if !ok {
			return err
		}
		var bit uint16
		switch v := any(v).(type) {
		case *AccessRequest:
			bit, err = d.accessRequest(v, key)
		case *UserRequest:
			bit, err = d.userRequest(v, key)
		case *pki.KeyInfo:
			bit, err = d.keyInfo(v, key)
		case *pki.BoundSubject:
			bit, err = d.boundSubject(v, key)
		case *pki.Identity:
			bit, err = d.identity(v, key)
		case *pki.ThresholdAttribute:
			bit, err = d.threshold(v, key)
		case *pki.Attribute:
			bit, err = d.attribute(v, key)
		case *pki.Delegation:
			bit, err = d.delegation(v, key)
		case *pki.Signed[pki.Identity]:
			bit, err = signed(d, v, key)
		case *pki.Signed[pki.ThresholdAttribute]:
			bit, err = signed(d, v, key)
		case *pki.Signed[pki.Attribute]:
			bit, err = signed(d, v, key)
		case *pki.Signed[pki.Delegation]:
			bit, err = signed(d, v, key)
		}
		if err == nil && set&bit != 0 {
			err = d.fail("duplicate key " + strconv.Quote(key))
		}
		if err != nil {
			return err
		}
		set |= bit
	}
}

// array decodes a JSON array (or null) of objects into a slice allocated
// once, at its final length: elements collect in a stack array first.
// "[]" is an empty non-nil slice and null is nil, as with encoding/json.
func array[T objectType](d *decoder, dst *[]T) error {
	if d.literal("null") {
		*dst = nil
		return nil
	}
	var stack [4]T
	buf := stack[:0]
	for n := 0; ; n++ {
		more, err := d.element(n)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		buf = append(buf, *new(T))
		if err := object(d, &buf[n]); err != nil {
			return err
		}
	}
	*dst = append(make([]T, 0, len(buf)), buf...)
	return nil
}

// The field decoders below decode the value of one member into its
// field and return the key's bit; an unknown key is an error.

func (d *decoder) unknown(key string) (uint16, error) {
	return 0, d.fail("unknown key " + strconv.Quote(key))
}

func (d *decoder) accessRequest(r *AccessRequest, key string) (uint16, error) {
	switch key {
	case "identities":
		return 1 << 0, array(d, &r.Identities)
	case "threshold":
		return 1 << 1, object(d, &r.Threshold)
	case "singleSubject":
		return 1 << 2, d.bool(&r.SingleSubject)
	case "single":
		return 1 << 3, object(d, &r.Single)
	case "delegated":
		return 1 << 4, d.bool(&r.Delegated)
	case "delegation":
		return 1 << 5, object(d, &r.Delegation)
	case "requests":
		return 1 << 6, array(d, &r.Requests)
	}
	return d.unknown(key)
}

func (d *decoder) userRequest(r *UserRequest, key string) (uint16, error) {
	switch key {
	case "user":
		return 1 << 0, d.str(&r.User)
	case "at":
		return 1 << 1, d.time(&r.At)
	case "op":
		return 1 << 2, d.op(&r.Op)
	case "object":
		return 1 << 3, d.str(&r.Object)
	case "payload":
		return 1 << 4, d.bytes(&r.Payload)
	case "sig":
		return 1 << 5, d.str(&r.SigS)
	}
	return d.unknown(key)
}

func signed[C pki.Identity | pki.ThresholdAttribute | pki.Attribute | pki.Delegation](d *decoder, sc *pki.Signed[C], key string) (uint16, error) {
	switch key {
	case "cert":
		return 1 << 0, object(d, &sc.Cert)
	case "signerKey":
		return 1 << 1, d.str(&sc.SignerKey)
	case "sig":
		return 1 << 2, d.str(&sc.SigS)
	}
	return d.unknown(key)
}

func (d *decoder) keyInfo(k *pki.KeyInfo, key string) (uint16, error) {
	switch key {
	case "n":
		return 1 << 0, d.str(&k.N)
	case "e":
		return 1 << 1, d.str(&k.E)
	}
	return d.unknown(key)
}

func (d *decoder) boundSubject(s *pki.BoundSubject, key string) (uint16, error) {
	switch key {
	case "name":
		return 1 << 0, d.str(&s.Name)
	case "keyId":
		return 1 << 1, d.str(&s.KeyID)
	}
	return d.unknown(key)
}

func (d *decoder) identity(c *pki.Identity, key string) (uint16, error) {
	switch key {
	case "issuer":
		return 1 << 0, d.str(&c.Issuer)
	case "issuedAt":
		return 1 << 1, d.time(&c.IssuedAt)
	case "subject":
		return 1 << 2, d.str(&c.Subject)
	case "subjectKey":
		return 1 << 3, object(d, &c.SubjectKey)
	case "keyId":
		return 1 << 4, d.str(&c.KeyID)
	case "notBefore":
		return 1 << 5, d.time(&c.NotBefore)
	case "notAfter":
		return 1 << 6, d.time(&c.NotAfter)
	}
	return d.unknown(key)
}

func (d *decoder) threshold(c *pki.ThresholdAttribute, key string) (uint16, error) {
	switch key {
	case "issuer":
		return 1 << 0, d.str(&c.Issuer)
	case "issuedAt":
		return 1 << 1, d.time(&c.IssuedAt)
	case "group":
		return 1 << 2, d.str(&c.Group)
	case "m":
		return 1 << 3, d.int(&c.M)
	case "subjects":
		return 1 << 4, array(d, &c.Subjects)
	case "notBefore":
		return 1 << 5, d.time(&c.NotBefore)
	case "notAfter":
		return 1 << 6, d.time(&c.NotAfter)
	}
	return d.unknown(key)
}

func (d *decoder) attribute(c *pki.Attribute, key string) (uint16, error) {
	switch key {
	case "issuer":
		return 1 << 0, d.str(&c.Issuer)
	case "issuedAt":
		return 1 << 1, d.time(&c.IssuedAt)
	case "group":
		return 1 << 2, d.str(&c.Group)
	case "subject":
		return 1 << 3, object(d, &c.Subject)
	case "notBefore":
		return 1 << 4, d.time(&c.NotBefore)
	case "notAfter":
		return 1 << 5, d.time(&c.NotAfter)
	}
	return d.unknown(key)
}

func (d *decoder) delegation(c *pki.Delegation, key string) (uint16, error) {
	switch key {
	case "issuer":
		return 1 << 0, d.str(&c.Issuer)
	case "issuedAt":
		return 1 << 1, d.time(&c.IssuedAt)
	case "delegator":
		return 1 << 2, d.str(&c.Delegator)
	case "subject":
		return 1 << 3, object(d, &c.Subject)
	case "group":
		return 1 << 4, d.str(&c.Group)
	case "depth":
		return 1 << 5, d.int(&c.Depth)
	case "perms":
		return 1 << 6, d.str(&c.Perms)
	case "notBefore":
		return 1 << 7, d.time(&c.NotBefore)
	case "notAfter":
		return 1 << 8, d.time(&c.NotAfter)
	}
	return d.unknown(key)
}
