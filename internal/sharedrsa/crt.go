package sharedrsa

import (
	"errors"
	"fmt"
	"math/big"
	"math/bits"
)

// ErrSignFault reports a CRT signature that failed its public-exponent
// check s^e ≡ H(M) (mod N) and was not released. One faulty half-size
// exponentiation is enough for whoever sees the signature to factor N
// (gcd(s^e − H(M), N) is a prime; Boneh–DeMillo–Lipton, Lenstra), so a
// signature that does not verify is never returned.
var ErrSignFault = errors.New("sharedrsa: CRT signature failed its public-exponent check")

// CRTKey is a conventional (single-owner) RSA private key in CRT form:
// N = p·q, dP = d mod (p−1), dQ = d mod (q−1) and qInv = q⁻¹ mod p. The
// full private exponent d is not kept. Users and domain CAs hold such
// keys; the coalition's shared keys have no CRT form, because no party
// knows φ(N), and their partials are full-width (partials, on the
// Montgomery kernel from one power table per signature).
type CRTKey struct {
	pub                PublicKey
	p, q, dP, dQ, qInv *big.Int
	// rr is R² mod N, with which the check enters the Montgomery domain.
	rr []big.Word
	// mp and mq are p's and q's four-word Montgomery constants when both
	// primes, dP and dQ are four 64-bit words (every 512-bit key on a
	// 64-bit machine), else nil: sign then raises the halves on mont4
	// instead of math/big's Exp.
	mp, mq *mont4
}

// NewCRTKey builds a CRT key from the factorization and CRT exponents of
// an RSA key (crypto/rsa's Primes and Precomputed.Dp, Dq, Qinv, with
// primes[0] = p). It refuses a key that does not have exactly two primes,
// whose primes do not multiply to N, or under whose public half no
// signature verifies. The values are copied.
func NewCRTKey(pub PublicKey, primes []*big.Int, dP, dQ, qInv *big.Int) (*CRTKey, error) {
	if len(primes) != 2 {
		return nil, fmt.Errorf("sharedrsa: a conventional key has exactly two primes, not %d", len(primes))
	}
	p, q := primes[0], primes[1]
	if p == nil || q == nil || dP == nil || dQ == nil || qInv == nil {
		return nil, errors.New("sharedrsa: CRT key is missing a prime or a CRT value")
	}
	if !pub.verifiable() || new(big.Int).Mul(p, q).Cmp(pub.N) != 0 {
		return nil, errors.New("sharedrsa: CRT key primes do not factor its modulus")
	}
	cp := func(x *big.Int) *big.Int { return new(big.Int).Set(x) }
	k := &CRTKey{pub: pub, p: cp(p), q: cp(q), dP: cp(dP), dQ: cp(dQ), qInv: cp(qInv),
		rr: montR2(pub.N)}
	if bits.UintSize == 64 && len(p.Bits()) == 4 && len(q.Bits()) == 4 &&
		dP.Sign() >= 0 && dQ.Sign() >= 0 && len(dP.Bits()) <= 4 && len(dQ.Bits()) <= 4 {
		k.mp, k.mq = newMont4(p), newMont4(q)
	}
	return k, nil
}

// Public returns the verification key.
func (k *CRTKey) Public() PublicKey { return k.pub }

// Sign produces the FDH-RSA signature H(M)^d mod N as two half-size
// exponentiations, H^dP mod p and H^dQ mod q, recombined by Garner's
// formula, and releases it only after expPublic has checked it against
// the same H. The halves of a 512-bit key run on the four-word Montgomery
// kernel (mont4.expHalf), larger ones on math/big's Exp; a fault in
// either is caught by the check. FDH is deterministic: the result is
// bit-identical to H^d mod N. On a failed check it returns ErrSignFault
// and no signature. Neither half is constant-time (mont4.expHalf).
//
// One allocation holds every temporary the signer owns: the halves'
// inputs and results, Garner's step, the check's Montgomery scratch, and
// the returned S, which keeps it alive.
func (k *CRTKey) Sign(msg []byte) (Signature, error) {
	h := hashToModulus(msg, k.pub.N)
	var s big.Int
	work := k.sign(&s, h)
	if expPublicIn(new(big.Int), &s, k.pub.E, k.pub.N, k.rr, work).Cmp(h) != 0 {
		return Signature{}, ErrSignFault
	}
	return Signature{S: &s}, nil
}

// sign sets s = h^d mod N in CRT form, unchecked, and returns the part of
// its scratch the check may reuse (everything but s).
func (k *CRTKey) sign(s, h *big.Int) []big.Word {
	n := len(k.pub.N.Bits())
	half := max(len(k.p.Bits()), len(k.q.Bits()))
	// Each region holds a product of two halves plus the word math/big's
	// long division appends to its remainder.
	w := max(n, 2*half) + 2
	buf := make([]big.Word, w+max(4*w, expPublicWords(n, n, true)))
	region := func(i int) []big.Word { return buf[i*w : i*w : (i+1)*w] }
	var r, quo, m1, m2 big.Int
	s.SetBits(region(0))
	r.SetBits(region(1))
	quo.SetBits(region(2))
	m1.SetBits(region(3))
	m2.SetBits(region(4))

	quo.QuoRem(h, k.p, &r) // r = h mod p
	crtHalf(&m1, &r, k.dP, k.p, k.mp, region(3))
	quo.QuoRem(h, k.q, &r) // r = h mod q
	crtHalf(&m2, &r, k.dQ, k.q, k.mq, region(4))

	// Garner: s = m2 + q·(qInv·(m1 − m2) mod p). m1's region is free once
	// the difference is taken.
	r.Sub(&m1, &m2)
	m1.SetBits(region(3))
	m1.Mul(&r, k.qInv)
	quo.QuoRem(&m1, k.p, &r)
	if r.Sign() < 0 {
		r.Add(&r, k.p)
	}
	s.Mul(&r, k.q)
	s.Add(s, &m2)
	return buf[w:]
}

// crtHalf sets z = x^d mod p for x in [0, p): on m, p's four-word
// kernel, when there is one, with z's words in buf; else on math/big's
// Exp.
func crtHalf(z, x, d, p *big.Int, m *mont4, buf []big.Word) {
	if m == nil {
		z.Exp(x, d, p)
		return
	}
	xw, dw := words4(x), words4(d)
	v := m.expHalf(&xw, &dw)
	buf = buf[:4]
	for i, vi := range v {
		buf[i] = big.Word(vi)
	}
	z.SetBits(buf)
}
