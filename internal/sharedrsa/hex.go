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

// FormatHex returns x.Text(16) — lower-case hex digits, no leading zeros,
// "-" before a negative value — built on the stack for moduli up to 4096
// bits, so its one allocation is the string. Signatures and key moduli
// are written with it.
func FormatHex(x *big.Int) string {
	w := x.Bits()
	if len(w) == 0 {
		return "0"
	}
	const digits = bits.UintSize / 4
	var stack [1 + 4096/4]byte
	b := stack[:0]
	if n := 1 + len(w)*digits; n > len(stack) {
		b = make([]byte, 0, n)
	}
	if x.Sign() < 0 {
		b = append(b, '-')
	}
	skip := bits.LeadingZeros(uint(w[len(w)-1])) / 4
	for i := len(w) - 1; i >= 0; i-- {
		for j := skip; j < digits; j++ {
			b = append(b, "0123456789abcdef"[w[i]>>(4*(digits-1-j))&0xf])
		}
		skip = 0
	}
	return string(b)
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
