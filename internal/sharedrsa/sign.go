package sharedrsa

import (
	"fmt"
	"math/big"
)

// PartialSign computes one party's contribution S_i = H(M)^{d_i} mod N
// (Section 3.2: "each of the co-signers then apply their corresponding
// private key shares d_i to compute S_i = M^{d_i} mod N"). Negative shares
// (which arise from the floor-division sharing of d) are applied through
// the modular inverse of H(M).
func PartialSign(msg []byte, pk PublicKey, sh Share) (PartialSignature, error) {
	if sh.D == nil {
		return PartialSignature{}, fmt.Errorf("sharedrsa: share %d has no exponent", sh.Index)
	}
	h := hashToModulus(msg, pk.N)
	v, err := modExpSigned(h, sh.D, pk.N)
	if err != nil {
		return PartialSignature{}, fmt.Errorf("sharedrsa: partial sign (party %d): %w", sh.Index, err)
	}
	return PartialSignature{Index: sh.Index, V: v}, nil
}

// modExpSigned computes base^exp mod n for possibly negative exp.
func modExpSigned(base, exp, n *big.Int) (*big.Int, error) {
	if exp.Sign() >= 0 {
		return new(big.Int).Exp(base, exp, n), nil
	}
	inv := new(big.Int).ModInverse(base, n)
	if inv == nil {
		// gcd(base, N) > 1: astronomically unlikely for a hash; would
		// incidentally factor N.
		return nil, fmt.Errorf("hash shares a factor with the modulus")
	}
	return inv.Exp(inv, new(big.Int).Neg(exp), n), nil
}

// Combine implements the requestor side of the joint signature protocol:
// it multiplies the partial signatures, S = ∏ S_i mod N, and fixes the
// bounded additive remainder of the floor-division exponent sharing by
// trying S·H^j for j = 0..parties until the signature verifies under e.
func Combine(msg []byte, pk PublicKey, partials []PartialSignature, parties int) (Signature, error) {
	if len(partials) == 0 {
		return Signature{}, fmt.Errorf("sharedrsa: no partial signatures: %w", ErrPartialMismatch)
	}
	if !pk.verifiable() {
		return Signature{}, ErrBadSignature
	}
	seen := make(map[int]bool, len(partials))
	s := big.NewInt(1)
	for _, p := range partials {
		if p.V == nil {
			return Signature{}, fmt.Errorf("sharedrsa: partial %d is empty: %w", p.Index, ErrPartialMismatch)
		}
		if seen[p.Index] {
			return Signature{}, fmt.Errorf("sharedrsa: duplicate partial from party %d: %w", p.Index, ErrPartialMismatch)
		}
		seen[p.Index] = true
		s.Mul(s, p.V)
		s.Mod(s, pk.N)
	}
	h := hashToModulus(msg, pk.N)
	budget := parties
	if budget < len(partials) {
		budget = len(partials)
	}
	cand := new(big.Int).Set(s)
	check := new(big.Int)
	for j := 0; j <= budget; j++ {
		if expPublic(check, cand, pk.E, pk.N).Cmp(h) == 0 {
			return Signature{S: cand, Correction: j}, nil
		}
		cand.Mul(cand, h)
		cand.Mod(cand, pk.N)
	}
	return Signature{}, ErrBadSignature
}

// Verify checks the joint signature: S^e ≡ H(M) (mod N). A key no
// signature can verify under (see PublicKey.verifiable) is ErrBadSignature.
func Verify(msg []byte, pk PublicKey, sig Signature) error {
	return verify(msg, pk, sig, nil)
}

// VerifyWith is Verify with the kernel's scratch kept in *buf: grown when
// too short and left there, so a caller that verifies signature after
// signature (authz's pooled per-request scratch) allocates it once.
func VerifyWith(msg []byte, pk PublicKey, sig Signature, buf *[]big.Word) error {
	return verify(msg, pk, sig, buf)
}

// verify is Verify and VerifyWith; buf, when not nil, holds the scratch.
func verify(msg []byte, pk PublicKey, sig Signature, buf *[]big.Word) error {
	if sig.S == nil || !pk.verifiable() {
		return ErrBadSignature
	}
	h := hashToModulus(msg, pk.N)
	var work []big.Word
	if buf != nil {
		need := expPublicWords(len(sig.S.Bits()), len(pk.N.Bits()), false)
		if len(*buf) < need {
			*buf = make([]big.Word, need)
		}
		work = *buf
	}
	var s big.Int
	if expPublicIn(&s, sig.S, pk.E, pk.N, nil, work).Cmp(h) != 0 {
		return ErrBadSignature
	}
	return nil
}

// SignJointly is the whole Section 3.2 flow for an n-of-n sharing whose
// shares one caller holds: every share's partial, combined and verified.
// It serves pki.NewJointSigner and the experiments that model stolen or
// colluding shares. The coalition AA does not sign through it: its
// consensus signer collects each domain's partial only after that domain
// consents (authority.DomainAgent.CoSign).
func SignJointly(msg []byte, pk PublicKey, shares []Share) (Signature, error) {
	partials := make([]PartialSignature, len(shares))
	for i, sh := range shares {
		p, err := PartialSign(msg, pk, sh)
		if err != nil {
			return Signature{}, err
		}
		partials[i] = p
	}
	sig, err := Combine(msg, pk, partials, len(shares))
	if err != nil {
		return Signature{}, fmt.Errorf("sharedrsa: joint signature: %w", err)
	}
	return sig, nil
}

// CombineExact is Combine's counterpart in the E2 ablation
// (cmd/experiments): instead of searching the correction j, the caller
// supplies the exact remainder k (obtainable by tracking the
// floor-division residues during keygen at the cost of revealing them).
func CombineExact(msg []byte, pk PublicKey, partials []PartialSignature, k int) (Signature, error) {
	if len(partials) == 0 {
		return Signature{}, ErrPartialMismatch
	}
	s := big.NewInt(1)
	for _, p := range partials {
		if p.V == nil {
			return Signature{}, ErrPartialMismatch
		}
		s.Mul(s, p.V)
		s.Mod(s, pk.N)
	}
	h := hashToModulus(msg, pk.N)
	s.Mul(s, new(big.Int).Exp(h, big.NewInt(int64(k)), pk.N))
	s.Mod(s, pk.N)
	sig := Signature{S: s, Correction: k}
	if err := Verify(msg, pk, sig); err != nil {
		return Signature{}, err
	}
	return sig, nil
}
