// Batch verification of FDH-RSA signatures under one public key.
//
// The small public exponent the coalition's shared key fixes (e = 65537)
// makes the k-way screening check of Bellare–Garay–Rabin (Eurocrypt '98)
// profitable: instead of k full verifications S_i^e ≟ H(M_i), check once
//
//	(Π S_i)^e ≡ Π H(M_i)  (mod N)
//
// — one e-exponentiation plus 2(k-1) modular multiplications in place of
// k e-exponentiations. The check is a *screen*: it proves every distinct
// M_i in the batch was signed under the key (that is the BGR screening
// theorem for FDH-RSA, and exactly the property the authorization logic
// consumes — "issuer says M_i"), but it does not prove each S_i is
// individually well-formed: a pair (S_1·x, S_2·x⁻¹) cancels in the
// product. Two consequences, both handled here:
//
//  1. Screening is sound only for *distinct* messages (with M repeated,
//     (S·y, S·y⁻¹·...) hides a forgery of M itself behind a valid
//     signature of M). BatchVerify therefore refuses to screen batches
//     with duplicate messages and falls back to per-item verification.
//  2. Callers who need every S_i individually valid — not just every M_i
//     authentically signed — set BlindBits > 0: each item is raised to a
//     fresh random exponent r_i before the product, Π S_i^{e·r_i} ≟
//     Π H(M_i)^{r_i}, so a cancellation pair survives with probability
//     2^-BlindBits. Blinding costs one λ-bit exponentiation per item
//     (≈ 1.5λ modular multiplications), which at e = 65537 (17 bits) is
//     *more* expensive than direct verification for any useful λ — it is
//     a strictness knob, not a performance one. Measured on the harness:
//     screening wins 1.9–4.7× for k = 2–16; blinding at λ = 32 loses
//     ≈ 3× at every k.
//
// When the batch check fails, BatchVerify falls back to verifying each
// item individually, so the caller learns exactly which indices are bad
// (BatchError) and per-item error taxonomy is preserved.
package sharedrsa

import (
	"crypto/rand"
	"crypto/sha256"
	"fmt"
	"io"
	"math/big"
	"strings"
)

// BatchItem is one (message, signature) pair of a batch, all verified
// under the same public key.
type BatchItem struct {
	Msg []byte
	Sig Signature
}

// BatchOptions tunes BatchVerify.
type BatchOptions struct {
	// BlindBits, when > 0, raises every item to a fresh random exponent
	// of that many bits before the product check, so an adversarial
	// cancellation pair passes with probability 2^-BlindBits. 0 (the
	// default) uses the unblinded screening check with duplicate-message
	// batches refused. See the package comment for the trade-off.
	BlindBits int
	// Rand is the randomness source for blinding exponents; nil means
	// crypto/rand.Reader.
	Rand io.Reader
}

// BatchResult reports how a batch was decided, for callers that meter
// batched vs fallback work.
type BatchResult struct {
	// Batched is true when the k-way product check ran (regardless of
	// outcome).
	Batched bool
	// Fallback is true when per-item verification ran — because the
	// product check failed, was refused (duplicate messages under
	// screening), or the batch had a single item.
	Fallback bool
}

// BatchError attributes a failed batch to its bad items.
type BatchError struct {
	// Bad lists the failing item indices, ascending.
	Bad []int
	// Errs holds the per-item verification errors, parallel to Bad.
	Errs []error
}

// Error renders the failing indices.
func (e *BatchError) Error() string {
	var sb strings.Builder
	sb.WriteString("sharedrsa: batch verification failed at index")
	if len(e.Bad) > 1 {
		sb.WriteString("es")
	}
	for i, idx := range e.Bad {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, " %d", idx)
	}
	return sb.String()
}

// Unwrap lets errors.Is(err, ErrBadSignature) hold for batch failures.
func (e *BatchError) Unwrap() error { return ErrBadSignature }

// BatchVerify checks k signatures under one key with a single k-way
// product check, falling back to per-item verification to attribute
// failures. A nil error means every item verifies (under screening: every
// distinct message is authentically signed; see the package comment).
// On failure the error is a *BatchError naming the bad indices.
func BatchVerify(items []BatchItem, pk PublicKey, opts BatchOptions) (BatchResult, error) {
	switch len(items) {
	case 0:
		return BatchResult{}, nil
	case 1:
		// A 1-batch is a direct verification; no product check to amortize.
		if err := Verify(items[0].Msg, pk, items[0].Sig); err != nil {
			return BatchResult{}, &BatchError{Bad: []int{0}, Errs: []error{err}}
		}
		return BatchResult{}, nil
	}

	// Structurally broken signatures (nil or out of range) can make the
	// product check misattribute; weed them out up front with the exact
	// per-item errors. So can a key nothing verifies under.
	if !pk.verifiable() {
		return fallback(items, pk, BatchResult{Fallback: true})
	}
	for _, it := range items {
		if it.Sig.S == nil || it.Sig.S.Sign() < 0 || it.Sig.S.Cmp(pk.N) >= 0 {
			return fallback(items, pk, BatchResult{Fallback: true})
		}
	}

	if opts.BlindBits <= 0 {
		// Screening mode: refuse duplicate messages (see package comment).
		seen := make(map[[sha256.Size]byte]bool, len(items))
		distinct := true
		for _, it := range items {
			d := sha256.Sum256(it.Msg)
			if seen[d] {
				distinct = false
				break
			}
			seen[d] = true
		}
		if !distinct {
			return fallback(items, pk, BatchResult{Fallback: true})
		}
		sProd := big.NewInt(1)
		hProd := big.NewInt(1)
		for _, it := range items {
			sProd.Mul(sProd, it.Sig.S)
			sProd.Mod(sProd, pk.N)
			hProd.Mul(hProd, hashToModulus(it.Msg, pk.N))
			hProd.Mod(hProd, pk.N)
		}
		if expPublic(sProd, sProd, pk.E, pk.N).Cmp(hProd) == 0 {
			return BatchResult{Batched: true}, nil
		}
		return fallback(items, pk, BatchResult{Batched: true, Fallback: true})
	}

	// Blinded mode: (Π S_i^{r_i})^e ≟ Π H(M_i)^{r_i} with fresh random
	// λ-bit exponents r_i ≥ 1.
	rng := opts.Rand
	if rng == nil {
		rng = rand.Reader
	}
	bound := new(big.Int).Lsh(big.NewInt(1), uint(opts.BlindBits))
	sProd := big.NewInt(1)
	hProd := big.NewInt(1)
	t := new(big.Int)
	for _, it := range items {
		r, err := rand.Int(rng, bound)
		if err != nil {
			return BatchResult{}, fmt.Errorf("sharedrsa: blinding exponent: %w", err)
		}
		r.SetBit(r, 0, 1) // r_i ≥ 1 (and odd): a zero exponent would drop the item
		sProd.Mul(sProd, t.Exp(it.Sig.S, r, pk.N))
		sProd.Mod(sProd, pk.N)
		hProd.Mul(hProd, t.Exp(hashToModulus(it.Msg, pk.N), r, pk.N))
		hProd.Mod(hProd, pk.N)
	}
	if expPublic(sProd, sProd, pk.E, pk.N).Cmp(hProd) == 0 {
		return BatchResult{Batched: true}, nil
	}
	return fallback(items, pk, BatchResult{Batched: true, Fallback: true})
}

// fallback verifies each item individually, attributing failures to
// their indices.
func fallback(items []BatchItem, pk PublicKey, res BatchResult) (BatchResult, error) {
	var be *BatchError
	for i, it := range items {
		if err := Verify(it.Msg, pk, it.Sig); err != nil {
			if be == nil {
				be = &BatchError{}
			}
			be.Bad = append(be.Bad, i)
			be.Errs = append(be.Errs, err)
		}
	}
	if be != nil {
		return res, be
	}
	return res, nil
}
