package sharedrsa

import (
	"math/big"
	"math/bits"
)

// expPublic sets z = x**e mod n and returns z. It is the package's only
// exponentiation by a public exponent — Verify, Combine's trial
// correction, BatchVerify's product checks and CRTKey.Sign's check before
// release. A shared key's partials run on the same products and REDC
// from a table of H(M)'s powers (partial.go); the other private
// exponents (keygen, the dealer, the CRT halves) stay on math/big.
//
// math/big's Exp takes its Montgomery path only for exponents of more
// than one word; for e = 65537 it reduces every one of its 17 products by
// long division. Here x enters the Montgomery domain with a single
// shift-and-reduce (x·R mod n, R = 2^(W·len(n))) and each squaring and
// multiplication is reduced by REDC; the last multiplication, by x itself
// rather than x·R, leaves the domain (or, where it cannot, one more REDC).
// Squarings, 16 of e = 65537's 17 steps, compute each cross product once.
// The running time depends on x, e and n, which is acceptable only
// because every input here is public.
//
// n must be odd and at least 3 and e positive (callers check with
// PublicKey.verifiable); x may be any integer and is reduced as Exp
// reduces it. Its scratch is one allocation, and z's words live in it.
func expPublic(z, x, e, n *big.Int) *big.Int {
	return expPublicIn(z, x, e, n, nil, nil)
}

// expPublicIn is expPublic with two options for a caller that raises to e
// under one modulus more than once (CRTKey.Sign's check):
//
//   - rr, when not nil, is R² mod n in len(n) words, and x must lie in
//     [0, n). x then enters the domain as REDC(x·R²) instead of by shift
//     and division, and the scratch shrinks to 6·len(n) words.
//   - buf supplies the scratch when it is long enough (see
//     expPublicWords); z's words then live in it.
func expPublicIn(z, x, e, n *big.Int, rr, buf []big.Word) *big.Int {
	nw := n.Bits()
	k := len(nw)
	xk := len(x.Bits())

	if need := expPublicWords(xk, k, rr != nil); len(buf) < need {
		buf = make([]big.Word, need)
	}
	// Two 2k-word product buffers the ladder alternates between (REDC
	// leaves its result in the upper half), xm and x itself.
	t, u := buf[0:2*k:2*k], buf[2*k:4*k:4*k]
	xm, xr := buf[4*k:5*k:5*k], buf[5*k:6*k:6*k]
	clear(xm) // a passed buf is not zeroed; x and x·R mod n may be short
	clear(xr)
	k0 := montInverse(nw[0])

	// Enter the domain: xm = x·R mod n, in [0, n).
	var leave bool
	if rr != nil {
		copy(xr, x.Bits())
		mulVV(t, xr, rr)
		copy(xm, redc(t, nw, k0))
		leave = e.Bit(0) == 0 || e.BitLen() == 1
	} else {
		// The shifted x, quotient and remainder, sized so math/big reuses
		// them.
		rest := buf[6*k:]
		var sh, q, r big.Int
		sh.SetBits(rest[0 : 0 : xk+k+1])
		rest = rest[xk+k+1:]
		q.SetBits(rest[0 : 0 : xk+2])
		r.SetBits(rest[xk+2 : xk+2])
		sh.Lsh(x, uint(k*bits.UintSize))
		q.QuoRem(&sh, n, &r)
		copy(xm, r.Bits())
		if r.Sign() < 0 {
			subVV(xm, nw, xm)
		}
		// With e odd and x already in [0, n), the last step multiplies by
		// x itself instead of xm, and its REDC leaves the domain.
		leave = e.Bit(0) == 0 || e.BitLen() == 1 || x.Sign() < 0 || x.Cmp(n) >= 0
		if !leave {
			copy(xr, x.Bits())
		}
	}

	acc := xm
	for i := e.BitLen() - 2; i >= 0; i-- {
		t, u = u, t
		sqrVV(t, acc)
		acc = redc(t, nw, k0)
		if e.Bit(i) == 1 {
			y := xm
			if i == 0 && !leave {
				y = xr
			}
			t, u = u, t
			mulVV(t, acc, y)
			acc = redc(t, nw, k0)
		}
	}
	if leave {
		t, u = u, t
		copy(t, acc)
		clear(t[k:])
		acc = redc(t, nw, k0)
	}
	return z.SetBits(acc)
}

// expPublicWords is the scratch expPublicIn needs for an xk-word base and
// a k-word modulus: 6k for the ladder, plus, without R², 2k + 3xk + 5 for
// the entry's shift and division.
func expPublicWords(xk, k int, haveRR bool) int {
	if haveRR {
		return 6 * k
	}
	return 6*k + (xk + k + 1) + (xk + 2) + (xk + k + 2)
}

// montR2 returns R² mod n in len(n) words, R = 2^(W·len(n)): the constant
// that lets expPublicIn enter the domain without dividing.
func montR2(n *big.Int) []big.Word {
	k := len(n.Bits())
	r2 := new(big.Int).Lsh(big.NewInt(1), uint(2*k*bits.UintSize))
	rr := make([]big.Word, k)
	copy(rr, r2.Mod(r2, n).Bits())
	return rr
}

// montInverse returns -n0⁻¹ mod 2^W for odd n0 (Newton–Raphson, as
// math/big computes it).
func montInverse(n0 big.Word) big.Word {
	k0 := 2 - n0
	t := n0 - 1
	for i := 1; i < bits.UintSize; i <<= 1 {
		t *= t
		k0 *= t + 1
	}
	return -k0
}

// redc returns t·R⁻¹ mod n for t < n·R (Montgomery reduction), with
// len(t) = 2·len(n), as t's upper half: it works in place.
func redc(t, n []big.Word, k0 big.Word) []big.Word {
	k := len(n)
	t = t[:2*k]
	var carry uint
	for i := 0; i < k; i++ {
		c := addMulVVW(t[i:i+k], n, t[i]*k0)
		s, c1 := bits.Add(uint(t[i+k]), uint(c), 0)
		s, c2 := bits.Add(s, carry, 0)
		t[i+k] = big.Word(s)
		carry = c1 + c2
	}
	// t[k:] + carry·R < 2n.
	z := t[k:]
	if carry != 0 || cmpVV(z, n) >= 0 {
		subVV(z, z, n)
	}
	return z
}

// mulVV sets t = a·b, with len(a) = len(b) = k and len(t) = 2k.
func mulVV(t, a, b []big.Word) {
	k := len(a)
	clear(t[:k])
	for i, ai := range a {
		t[i+k] = addMulVVW(t[i:i+k], b, ai)
	}
}

// sqrVV sets t = a², with len(t) = 2·len(a): each cross product a_i·a_j
// (i < j) once, doubled by a one-bit shift, plus the diagonal.
func sqrVV(t, a []big.Word) {
	k := len(a)
	t = t[:2*k]
	clear(t[:k])
	t[2*k-1] = 0
	for i := 0; i < k-1; i++ {
		t[i+k] = addMulVVW(t[2*i+1:i+k], a[i+1:], a[i])
	}
	var shift, carry uint
	for i, ai := range a {
		hi, lo := bits.Mul(uint(ai), uint(ai))
		t0, t1 := uint(t[2*i]), uint(t[2*i+1])
		d0 := t0<<1 | shift
		d1 := t1<<1 | t0>>(bits.UintSize-1)
		shift = t1 >> (bits.UintSize - 1)
		d0, carry = bits.Add(d0, lo, carry)
		d1, carry = bits.Add(d1, hi, carry)
		t[2*i], t[2*i+1] = big.Word(d0), big.Word(d1)
	}
}

// addMulVVW sets z += x·y and returns the carry word, len(x) ≥ len(z).
// Unrolled four ways, it stays a leaf call rather than inlining into its
// callers' loops, where it would spill its carries to the stack.
func addMulVVW(z, x []big.Word, y big.Word) big.Word {
	x = x[:len(z)]
	yy := uint(y)
	var c uint
	i := 0
	for ; i+4 <= len(z); i += 4 {
		zz, xx := z[i:i+4:i+4], x[i:i+4:i+4]
		h0, l0 := bits.Mul(uint(xx[0]), yy)
		h1, l1 := bits.Mul(uint(xx[1]), yy)
		h2, l2 := bits.Mul(uint(xx[2]), yy)
		h3, l3 := bits.Mul(uint(xx[3]), yy)
		// Two carry chains: z + the low words, then + the high words
		// shifted up one place and the incoming carry.
		var ca, cb uint
		l0, ca = bits.Add(l0, uint(zz[0]), 0)
		l1, ca = bits.Add(l1, uint(zz[1]), ca)
		l2, ca = bits.Add(l2, uint(zz[2]), ca)
		l3, ca = bits.Add(l3, uint(zz[3]), ca)
		l0, cb = bits.Add(l0, c, 0)
		l1, cb = bits.Add(l1, h0, cb)
		l2, cb = bits.Add(l2, h1, cb)
		l3, cb = bits.Add(l3, h2, cb)
		zz[0], zz[1], zz[2], zz[3] = big.Word(l0), big.Word(l1), big.Word(l2), big.Word(l3)
		c = h3 + ca + cb
	}
	for ; i < len(z); i++ {
		var l uint
		c, l = madd(uint(x[i]), yy, uint(z[i]), c)
		z[i] = big.Word(l)
	}
	return big.Word(c)
}

// madd returns x·y + z + c as two words, which cannot overflow.
func madd(x, y, z, c uint) (hi, lo uint) {
	hi, lo = bits.Mul(x, y)
	var cc uint
	lo, cc = bits.Add(lo, z, 0)
	hi += cc
	lo, cc = bits.Add(lo, c, 0)
	return hi + cc, lo
}

// subVV sets z = x - y mod 2^(W·len(z)), len(x) = len(y) = len(z).
func subVV(z, x, y []big.Word) {
	x, y = x[:len(z)], y[:len(z)]
	var b uint
	for i := range z {
		d, bb := bits.Sub(uint(x[i]), uint(y[i]), b)
		z[i], b = big.Word(d), bb
	}
}

// cmpVV compares equal-length little-endian word vectors.
func cmpVV(x, y []big.Word) int {
	for i := len(x) - 1; i >= 0; i-- {
		if x[i] != y[i] {
			if x[i] < y[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}
