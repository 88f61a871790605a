// Package sharedrsa implements shared RSA keys for the coalition Attribute
// Authority of Section 3: n domains jointly generate one RSA public key
// (N, e) such that none of them ever learns the factorization of N or the
// private exponent d (Boneh–Franklin, Crypto '97), and then sign threshold
// attribute certificates with a joint signature protocol applied to their
// additive shares d_i (Wu–Malkin–Boneh, USENIX Security '99).
//
// The implementation follows the published protocols with the substitutions
// recorded in DESIGN.md:
//
//   - The secure multiplication computing N = pq is BGW over Shamir shares
//     with a combining party interpolating the degree-2t product polynomial
//     at 0 — honest-but-curious, (n-1)/2-private like the original.
//   - Trial division of the candidate primes uses a blinded ring secure-sum
//     that reveals only p mod ℓ to the initiating party, standing in for
//     Boneh–Franklin's distributed sieving.
//   - The biprimality test is Boneh–Franklin's: for random g with Jacobi
//     symbol (g/N) = 1, the parties check g^{φ(N)/4} ≡ ±1 (mod N) from
//     their φ-shares without reconstructing φ.
//   - The shared decryption exponent uses the small-public-exponent trick:
//     ζ = -φ(N)^{-1} mod e is computed from φ(N) mod e (learned by a
//     blinded secure-sum), each party sets d_i = ⌊ζ·φ_i/e⌋, and the
//     combiner fixes the bounded additive remainder at signature time by
//     trying S·M^j for j = 0..n ("trial correction").
package sharedrsa

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
)

// Sentinel errors.
var (
	// ErrTooFewParties indicates n < 2.
	ErrTooFewParties = errors.New("sharedrsa: at least 2 parties required")
	// ErrKeygenExhausted indicates no biprime was found within the
	// configured attempt budget.
	ErrKeygenExhausted = errors.New("sharedrsa: keygen attempt budget exhausted")
	// ErrBadSignature indicates a joint signature that does not verify.
	ErrBadSignature = errors.New("sharedrsa: signature does not verify")
	// ErrPartialMismatch indicates combine was given inconsistent partials.
	ErrPartialMismatch = errors.New("sharedrsa: partial signatures inconsistent")
	// ErrQuorum indicates too few partial signatures for the threshold.
	ErrQuorum = errors.New("sharedrsa: quorum not met")
)

// PublicKey is the coalition AA's shared RSA public key (N, e).
type PublicKey struct {
	N *big.Int
	E *big.Int
}

// verifiable reports whether signatures can be checked under pk: an odd
// modulus of at least 3 (the Montgomery kernel's domain; a zero modulus
// would divide by zero) and a positive exponent.
func (pk PublicKey) verifiable() bool {
	return pk.N != nil && pk.E != nil && pk.N.Sign() > 0 && pk.N.Bit(0) == 1 &&
		pk.N.BitLen() >= 2 && pk.E.Sign() > 0
}

// String renders a short fingerprint of the key.
func (pk PublicKey) String() string {
	h := sha256.Sum256(append(pk.N.Bytes(), pk.E.Bytes()...))
	return fmt.Sprintf("rsa-shared:%x", h[:8])
}

// KeyID returns the key identifier used in certificates: the hash of N and
// the public exponent e, exactly the "key ID comprising the hash of N and
// the public exponent e" of Section 3.2. It is the hex of the first 16
// bytes of SHA-256 over N's and then e's big-endian bytes, hashed from
// the stack: its one allocation is the string.
func (pk PublicKey) KeyID() string {
	nb, eb := (pk.N.BitLen()+7)/8, (pk.E.BitLen()+7)/8
	var stack [4096/8 + 8]byte
	b := stack[:0]
	if nb+eb > len(stack) {
		b = make([]byte, 0, nb+eb)
	}
	b = b[:nb+eb]
	pk.N.FillBytes(b[:nb])
	pk.E.FillBytes(b[nb:])
	h := sha256.Sum256(b)
	var id [32]byte
	hex.Encode(id[:], h[:16])
	return string(id[:])
}

// Share is one party's additive share d_i of the private exponent. The sum
// Σ d_i differs from a working exponent by a bounded remainder fixed at
// combination time (trial correction).
type Share struct {
	Index int // 1-based party index
	D     *big.Int
}

// Clone returns a deep copy of the share.
func (s Share) Clone() Share { return Share{Index: s.Index, D: new(big.Int).Set(s.D)} }

// PartialSignature is one party's contribution S_i = H(M)^{d_i} mod N.
type PartialSignature struct {
	Index int
	V     *big.Int
}

// Signature is a combined joint signature.
type Signature struct {
	S *big.Int
	// Correction is the j in S = (∏ S_i)·H^j that made the signature
	// verify; recorded for the E2 ablation (cmd/experiments).
	Correction int
}

// hashToModulus maps a message to a full-domain element of Z_N by
// expanding SHA-256 with a counter (FDH-style; documented substitution for
// whatever encoding the 1999 implementations used).
//
// Each block is SHA-256(ctr ‖ msg) over one buffer on the stack (for the
// certificate and request sizes the system signs), so only the result
// allocates.
func hashToModulus(msg []byte, n *big.Int) *big.Int {
	bits := n.BitLen() - 1
	need := (bits + 7) / 8
	var inStack [1024]byte
	in := inStack[:0]
	if 4+len(msg) > len(inStack) {
		in = make([]byte, 0, 4+len(msg))
	}
	in = append(in[:4], msg...)
	var outStack [4096/8 + sha256.Size]byte
	out := outStack[:0]
	if need+sha256.Size > len(outStack) {
		out = make([]byte, 0, need+sha256.Size)
	}
	for i := 0; len(out) < need; i++ {
		binary.BigEndian.PutUint32(in, uint32(i))
		sum := sha256.Sum256(in)
		out = append(out, sum[:]...)
	}
	x := new(big.Int).SetBytes(out[:need])
	x.Mod(x, n)
	if x.Sign() == 0 {
		x.SetInt64(1)
	}
	return x
}

// HashMessage exposes the full-domain hash for tests and benchmarks.
func HashMessage(msg []byte, pk PublicKey) *big.Int {
	return hashToModulus(msg, pk.N)
}
