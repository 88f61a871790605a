package sharedrsa

import (
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
)

// DealerResult is the outcome of a trusted-dealer key split: the Case I
// baseline of Section 2.2, where a conventional RSA key exists in one
// place (the "hardware lock box") before being split. The paper rejects
// this design for coalition use (Requirement II / trust liability); the
// library provides it as the experimental baseline for E4 and as a fast
// path for tests that only exercise signing.
type DealerResult struct {
	Public PublicKey
	Shares []Share
	// PrivateD is the dealer's copy of the full exponent — the single
	// point of trust failure that experiment E4 measures.
	PrivateD *big.Int
	// Phi is φ(N), known to the dealer (and to nobody in Case II).
	Phi *big.Int
}

// DealerSplit generates a conventional RSA key and splits d into n
// additive shares mod φ(N). Because the split is exact modulo φ, combined
// signatures need no trial correction (Correction is always 0) — the
// second arm of the E2 ablation.
func DealerSplit(bits, n int, rng io.Reader) (*DealerResult, error) {
	if n < 2 {
		return nil, ErrTooFewParties
	}
	if rng == nil {
		rng = rand.Reader
	}
	key, err := GenerateKey(bits, rng)
	if err != nil {
		return nil, fmt.Errorf("sharedrsa: dealer keygen: %w", err)
	}
	p, q := key.Primes[0], key.Primes[1]
	one := big.NewInt(1)
	phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
	d := new(big.Int).Set(key.D)

	shares := make([]Share, n)
	acc := new(big.Int)
	for i := 0; i < n-1; i++ {
		r, err := rand.Int(rng, phi)
		if err != nil {
			return nil, fmt.Errorf("sharedrsa: dealer split: %w", err)
		}
		shares[i] = Share{Index: i + 1, D: r}
		acc.Add(acc, r)
	}
	last := new(big.Int).Sub(d, acc)
	last.Mod(last, phi)
	shares[n-1] = Share{Index: n, D: last}

	return &DealerResult{
		Public:   PublicKey{N: key.N, E: big.NewInt(int64(key.E))},
		Shares:   shares,
		PrivateD: d,
		Phi:      phi,
	}, nil
}

// GenerateKey generates a conventional two-prime RSA key of the given
// size with e = 65537: each prime is a crypto/rand.Prime of half the
// size, whose top two bits are set, so N has exactly bits bits. From
// crypto/rand.Reader (rng nil) the two primes are drawn at once, one
// per goroutine; any other source is read for one prime after the
// other, since it need not be safe for concurrent use.
func GenerateKey(bits int, rng io.Reader) (*rsa.PrivateKey, error) {
	if bits < 16 {
		return nil, errors.New("sharedrsa: key size too small")
	}
	if rng == nil {
		rng = rand.Reader
	}
	e := big.NewInt(65537)
	one := big.NewInt(1)
	for {
		var (
			p, q       *big.Int
			pErr, qErr error
			drawn      sync.WaitGroup
		)
		drawP := func() { p, pErr = rand.Prime(rng, bits-bits/2) }
		if rng == rand.Reader {
			drawn.Add(1)
			go func() {
				defer drawn.Done()
				drawP()
			}()
		} else {
			drawP()
		}
		q, qErr = rand.Prime(rng, bits/2)
		drawn.Wait()
		if err := errors.Join(pErr, qErr); err != nil {
			return nil, err
		}
		if p.Cmp(q) == 0 {
			continue
		}
		phi := new(big.Int).Mul(new(big.Int).Sub(p, one), new(big.Int).Sub(q, one))
		d := new(big.Int).ModInverse(e, phi)
		if d == nil { // e divides p−1 or q−1
			continue
		}
		key := &rsa.PrivateKey{
			PublicKey: rsa.PublicKey{N: new(big.Int).Mul(p, q), E: int(e.Int64())},
			D:         d,
			Primes:    []*big.Int{p, q},
		}
		key.Precompute()
		if err := key.Validate(); err != nil {
			return nil, err
		}
		return key, nil
	}
}

// LockBox models the Case I hardware lock box (e.g. the IBM 4758 of the
// paper): it holds the conventional private exponent and signs only when
// all n domain passwords are presented. Compromise() models the insider or
// penetration attack the paper warns about — after it, the attacker holds
// the key and can sign unilaterally and repudiably.
type LockBox struct {
	pk        PublicKey
	d         *big.Int
	passwords map[string]bool
	leaked    bool
}

// NewLockBox seals the dealer's key behind the given domain passwords.
func NewLockBox(res *DealerResult, passwords []string) *LockBox {
	set := make(map[string]bool, len(passwords))
	for _, p := range passwords {
		set[p] = true
	}
	return &LockBox{pk: res.Public, d: new(big.Int).Set(res.PrivateD), passwords: set}
}

// Sign performs the private-key operation if every registered password is
// presented (the "joint cryptographic request" of Case I).
func (lb *LockBox) Sign(msg []byte, presented []string) (Signature, error) {
	got := make(map[string]bool, len(presented))
	for _, p := range presented {
		if lb.passwords[p] {
			got[p] = true
		}
	}
	if len(got) != len(lb.passwords) {
		return Signature{}, fmt.Errorf("sharedrsa: lock box requires all %d domain passwords, got %d",
			len(lb.passwords), len(got))
	}
	h := hashToModulus(msg, lb.pk.N)
	return Signature{S: new(big.Int).Exp(h, lb.d, lb.pk.N)}, nil
}

// Compromise leaks the private exponent to the attacker — the Case I
// single point of trust failure. It returns the exponent; every subsequent
// signature made with it is indistinguishable from a legitimate one.
func (lb *LockBox) Compromise() *big.Int {
	lb.leaked = true
	return new(big.Int).Set(lb.d)
}

// Compromised reports whether the lock box has been breached.
func (lb *LockBox) Compromised() bool { return lb.leaked }

// Public returns the lock box's public key.
func (lb *LockBox) Public() PublicKey { return lb.pk }
