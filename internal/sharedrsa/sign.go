package sharedrsa

import (
	"fmt"
	"math/big"
	"runtime"
	"sync"
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
// Each domain computes its S_i independently of the others, so the
// partials run on at most GOMAXPROCS goroutines, the caller's among them;
// they are kept in share order, and when shares fail the error of the
// lowest-index one is returned. It serves the coalition AA's consensus
// signer once every domain has consented (authority.consensusSigner),
// pki.NewJointSigner, the trial signatures of keygen and Redistribute,
// and the experiments that model stolen or colluding shares.
func SignJointly(msg []byte, pk PublicKey, shares []Share) (Signature, error) {
	return signJointly(msg, pk, shares, len(shares))
}

// signJointly is SignJointly with the combiner's correction search
// bounded by parties (Combine): Redistribute's trial signature searches
// as far as the sharing it was dealt from needed.
func signJointly(msg []byte, pk PublicKey, shares []Share, parties int) (Signature, error) {
	partials := make([]PartialSignature, len(shares))
	errs := make([]error, len(shares))
	// Worker w computes the partials w, w+workers, w+2·workers, …
	workers := min(runtime.GOMAXPROCS(0), len(shares))
	sign := func(w int) {
		for i := w; i < len(shares); i += workers {
			partials[i], errs[i] = PartialSign(msg, pk, shares[i])
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sign(w)
		}()
	}
	sign(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Signature{}, err
		}
	}
	sig, err := Combine(msg, pk, partials, parties)
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
