package sharedrsa

import (
	"math/big"
	"math/bits"
)

// ParseHex sets z to the value of the hexadecimal string s and returns z
// and true, or nil and false. It accepts exactly what z.SetString(s, 16)
// accepts — an optional sign, then one or more hex digits of either case,
// no prefix, no underscores — in one pass straight into z's limbs, which
// it reuses when they are large enough. On failure z's value is
// undefined, as with SetString.
func ParseHex(z *big.Int, s string) (*big.Int, bool) {
	neg := false
	if s != "" && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	if s == "" {
		return nil, false
	}
	const digits = bits.UintSize / 4 // hex digits per word
	n := (len(s) + digits - 1) / digits
	w := z.Bits()
	if cap(w) < n {
		w = make([]big.Word, n)
	}
	w = w[:n]
	// Word i holds the digits ending len(s) - i·digits; the first (most
	// significant) word may be short.
	end := len(s)
	for i := range w {
		start := max(end-digits, 0)
		var v big.Word
		for _, c := range []byte(s[start:end]) {
			d := hexVal(c)
			if d > 15 {
				return nil, false
			}
			v = v<<4 | big.Word(d)
		}
		w[i] = v
		end = start
	}
	z.SetBits(w)
	if neg {
		z.Neg(z)
	}
	return z, true
}

// hexVal returns the value of hex digit c, or 16 if c is not one.
func hexVal(c byte) byte {
	switch {
	case '0' <= c && c <= '9':
		return c - '0'
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10
	case 'A' <= c && c <= 'F':
		return c - 'A' + 10
	}
	return 16
}
