package sharedrsa

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"

	"jointadmin/internal/mpc/shamir"
)

// Config sizes the distributed key generation.
type Config struct {
	// Parties is n, the number of domains (≥ 2; the paper's running
	// example uses 3).
	Parties int
	// Bits is the modulus size; the candidate primes are Bits/2 each.
	Bits int
	// E is the public exponent; 0 selects 65537. Must be an odd prime in
	// this implementation (the small-e exponent-sharing trick).
	E int64
	// BiprimeRounds is the number of Boneh–Franklin test rounds (each
	// halves the error probability); 0 selects 16.
	BiprimeRounds int
	// MaxAttempts bounds the candidate search; 0 selects a bound scaled
	// to the prime density at the configured size that a run exhausts
	// with probability below 2⁻⁴⁰.
	MaxAttempts int
	// Rand is the entropy source; nil selects crypto/rand. The generation
	// reads it in fixed-width draws only, so a seeded source repeats the
	// key, the shares and the attempt counts.
	Rand io.Reader
}

func (c Config) withDefaults() (Config, error) {
	if c.Parties < 2 {
		return c, ErrTooFewParties
	}
	if c.Bits == 0 {
		c.Bits = 256
	}
	if c.Bits < 64 {
		return c, fmt.Errorf("sharedrsa: modulus below 64 bits is not meaningful")
	}
	if c.E == 0 {
		c.E = 65537
	}
	if c.E < 3 || !big.NewInt(c.E).ProbablyPrime(32) {
		return c, fmt.Errorf("sharedrsa: public exponent %d must be an odd prime", c.E)
	}
	if c.BiprimeRounds == 0 {
		c.BiprimeRounds = 16
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = defaultMaxAttempts(c.Bits)
	}
	if c.Rand == nil {
		c.Rand = rand.Reader
	}
	return c, nil
}

// defaultMaxAttempts is the candidate-search budget for a bits-bit
// modulus. A candidate ≡ 3 (mod 4) of half = bits/2 bits is prime with
// probability 2/(half·ln 2) and an iteration succeeds when both halves
// are, so the search is geometric with mean (half·ln 2/2)² ≈ 0.12·half²
// iterations (measured: 465 at 128 bits). 4·half² is 33 means —
// exhaustion probability e⁻³³ < 2⁻⁴⁰ at every size; an unused budget
// costs nothing.
func defaultMaxAttempts(bits int) int {
	half := bits / 2
	return 4 * half * half
}

// PartyView is one party's complete secret state after key generation —
// exported so that the adversary in the collusion experiment (E8) can be
// handed the full views of a coalition of parties.
type PartyView struct {
	Index          int
	PShare, QShare *big.Int // additive shares of the primes
	PhiShare       *big.Int // additive share of φ(N)
	DShare         *big.Int // additive share of d
}

// Result is the outcome of a distributed key generation.
type Result struct {
	Public PublicKey
	// Shares are the per-party additive exponent shares used for joint
	// signatures (the n-of-n sharing of Section 3.2).
	Shares []Share
	// Views are the per-party secret states (for simulation/experiments;
	// a deployment would keep each view inside its domain).
	Views []PartyView
	// Attempts counts candidate prime pairs examined (bench metric).
	Attempts int
	// SieveRejects and BiprimeRejects decompose the rejections.
	SieveRejects, BiprimeRejects int
	// Transcript records each party's protocol observations (E8).
	Transcript *Transcript
}

// smallPrimes are the sieve moduli for distributed trial division (odd
// primes below 1000, as in the Boneh–Franklin experiments).
var smallPrimes = sievePrimes(1000)

func sievePrimes(limit int) []int64 {
	composite := make([]bool, limit)
	var out []int64
	for i := 3; i < limit; i += 2 {
		if composite[i] {
			continue
		}
		out = append(out, int64(i))
		for j := i * i; j < limit; j += i {
			composite[j] = true
		}
	}
	return out
}

// GenerateShared runs the distributed shared-RSA key generation protocol
// among cfg.Parties simulated parties and returns the public key with the
// additive exponent shares. No single party's view (nor any coalition of
// fewer than all parties) contains the factorization of N or d.
func GenerateShared(cfg Config) (*Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n := cfg.Parties
	tr := NewTranscript()
	res := &Result{Transcript: tr}
	e := big.NewInt(cfg.E)

	// Field for the BGW multiplication: comfortably larger than any
	// candidate N.
	field, err := searchPrime(cfg.Bits+16, cfg.Rand)
	if err != nil {
		return nil, fmt.Errorf("sharedrsa: sample BGW field: %w", err)
	}

	for res.Attempts = 1; res.Attempts <= cfg.MaxAttempts; res.Attempts++ {
		pShares, err := samplePrimeShares(cfg, n)
		if err != nil {
			return nil, err
		}
		ok, err := passesSieve(pShares, e, cfg.Rand, tr)
		if err != nil {
			return nil, err
		}
		if !ok {
			res.SieveRejects++
			continue
		}
		qShares, err := samplePrimeShares(cfg, n)
		if err != nil {
			return nil, err
		}
		ok, err = passesSieve(qShares, e, cfg.Rand, tr)
		if err != nil {
			return nil, err
		}
		if !ok {
			res.SieveRejects++
			continue
		}

		// BGW: compute N = (Σ p_i)(Σ q_i) without revealing the factors.
		bigN, err := bgwMultiply(pShares, qShares, field, cfg.Rand, tr)
		if err != nil {
			return nil, err
		}
		if bigN.BitLen() < cfg.Bits-2 {
			continue // undersized candidate (improbable)
		}
		// Reject perfect squares (p == q breaks the biprimality test).
		if isPerfectSquare(bigN) {
			continue
		}

		ok, err = biprimal(bigN, pShares, qShares, cfg.BiprimeRounds, cfg.Rand, tr)
		if err != nil {
			return nil, err
		}
		if !ok {
			res.BiprimeRejects++
			continue
		}

		shares, views, ok, err := deriveExponentShares(bigN, pShares, qShares, e, cfg.Rand, tr)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue // gcd(e, φ) ≠ 1; resample
		}
		pk := PublicKey{N: bigN, E: new(big.Int).Set(e)}

		// Final functional filter: a trial joint signature must verify.
		// This also eliminates the rare composite survivors of the
		// probabilistic biprimality test.
		if err := trialSignature(pk, shares); err != nil {
			res.BiprimeRejects++
			continue
		}
		res.Public = pk
		res.Shares = shares
		res.Views = views
		return res, nil
	}
	return nil, fmt.Errorf("%w after %d attempts (bits=%d, n=%d)",
		ErrKeygenExhausted, cfg.MaxAttempts, cfg.Bits, n)
}

// samplePrimeShares draws every party's additive share of one
// candidate prime.
func samplePrimeShares(cfg Config, n int) ([]*big.Int, error) {
	shares := make([]*big.Int, n)
	for i := 1; i <= n; i++ {
		s, err := samplePrimeShareAt(i, n, cfg.Bits, cfg.Rand)
		if err != nil {
			return nil, err
		}
		shares[i-1] = s
	}
	return shares, nil
}

// samplePrimeShareAt draws party `index`'s additive share of a candidate
// prime: party 1 samples ≡ 3 (mod 4) with the top bit placed so the sum
// has bits/2 bits; other parties sample small shares ≡ 0 (mod 4).
// index is 1-based; parties is n.
func samplePrimeShareAt(index, parties, bits int, rng io.Reader) (*big.Int, error) {
	half := bits / 2
	if index == 1 {
		lead, err := rand.Int(rng, new(big.Int).Lsh(big.NewInt(1), uint(half-2)))
		if err != nil {
			return nil, fmt.Errorf("sharedrsa: sample share: %w", err)
		}
		lead.Add(lead, new(big.Int).Lsh(big.NewInt(1), uint(half-1)))
		lead.And(lead, new(big.Int).Not(big.NewInt(3)))
		lead.Or(lead, big.NewInt(3))
		return lead, nil
	}
	extra := uint(0)
	for v := parties - 1; v > 1; v >>= 1 {
		extra++
	}
	bound := new(big.Int).Lsh(big.NewInt(1), uint(half-2)-extra)
	s, err := rand.Int(rng, bound)
	if err != nil {
		return nil, fmt.Errorf("sharedrsa: sample share: %w", err)
	}
	s.And(s, new(big.Int).Not(big.NewInt(3)))
	return s, nil
}

// passesSieve runs distributed trial division: for each sieve modulus the
// parties compute Σ shares mod ℓ by blinded secure-sum; sieveAccepts then
// rejects candidates divisible by a small prime or ≡ 1 (mod e).
func passesSieve(shares []*big.Int, e *big.Int, rng io.Reader, tr *Transcript) (bool, error) {
	moduli := sieveModuli(e)
	residues := make([]*big.Int, len(moduli))
	vals := make([]*big.Int, len(shares))
	for mi, m := range moduli {
		for i, s := range shares {
			vals[i] = new(big.Int).Mod(s, m)
		}
		sum, err := secureSum(vals, m, rng, tr)
		if err != nil {
			return false, err
		}
		residues[mi] = sum
	}
	return sieveAccepts(residues, moduli), nil
}

// sieveModuli returns the trial-division moduli: the odd primes below
// 1000 plus the public exponent e (to reject p ≡ 1 mod e).
func sieveModuli(e *big.Int) []*big.Int {
	out := make([]*big.Int, 0, len(smallPrimes)+1)
	for _, ell := range smallPrimes {
		out = append(out, big.NewInt(ell))
	}
	out = append(out, new(big.Int).Set(e))
	return out
}

// sieveAccepts checks the revealed residues of the candidate sums against
// the moduli: reject when any small prime divides the candidate, or when
// the candidate ≡ 1 mod e (the last modulus).
func sieveAccepts(residues []*big.Int, moduli []*big.Int) bool {
	for i, r := range residues {
		last := i == len(moduli)-1
		if last {
			if r.Cmp(big.NewInt(1)) == 0 {
				return false
			}
			continue
		}
		if r.Sign() == 0 {
			return false
		}
	}
	return true
}

// bgwMultiply computes (Σ p_i)(Σ q_i) over the field: each party Shamir-
// shares its additive shares with degree t = ⌊(n-1)/2⌋, the share vectors
// are summed, multiplied pointwise (degree 2t ≤ n-1), and the combining
// party interpolates the product at 0.
func bgwMultiply(pShares, qShares []*big.Int, field *big.Int, rng io.Reader, tr *Transcript) (*big.Int, error) {
	n := len(pShares)
	t := (n - 1) / 2
	k := t + 1 // polynomial degree t ⇒ threshold t+1
	sumP, err := shareAndSum(pShares, k, n, field, rng)
	if err != nil {
		return nil, err
	}
	sumQ, err := shareAndSum(qShares, k, n, field, rng)
	if err != nil {
		return nil, err
	}
	prod, err := shamir.MulPointwise(sumP, sumQ, field)
	if err != nil {
		return nil, err
	}
	bigN, err := shamir.Interpolate(prod, big.NewInt(0), field)
	if err != nil {
		return nil, err
	}
	if tr != nil {
		for i := 1; i <= n; i++ {
			tr.Observe(i, fmt.Sprintf("bgw: N = %v", bigN))
		}
	}
	return bigN, nil
}

func shareAndSum(values []*big.Int, k, n int, field *big.Int, rng io.Reader) ([]shamir.Share, error) {
	var acc []shamir.Share
	for _, v := range values {
		sh, err := shamir.Split(new(big.Int).Mod(v, field), k, n, field, rng)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = sh
			continue
		}
		acc, err = shamir.AddShares(acc, sh, field)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// isPerfectSquare reports whether n is a perfect square (p == q breaks the
// biprimality test and the candidate must be rejected).
func isPerfectSquare(n *big.Int) bool {
	sq := new(big.Int).Sqrt(n)
	return new(big.Int).Mul(sq, sq).Cmp(n) == 0
}

// biprimal runs the Boneh–Franklin biprimality test: each party raises a
// common base to its own exponent share and party 1 compares the
// products.
func biprimal(bigN *big.Int, pShares, qShares []*big.Int, rounds int, rng io.Reader, tr *Transcript) (bool, error) {
	exps := make([]*big.Int, len(pShares))
	for i := range pShares {
		e, ok := biprimeExponent(i+1, bigN, pShares[i], qShares[i])
		if !ok {
			return false, nil // congruence constraints violated; resample
		}
		exps[i] = e
	}
	for round := 0; round < rounds; round++ {
		g, ok, err := sampleBiprimeBase(bigN, rng)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil // gcd(g, N) > 1 ⇒ N composite
		}
		v1 := new(big.Int).Exp(g, exps[0], bigN)
		others := make([]*big.Int, 0, len(exps)-1)
		for i := 1; i < len(exps); i++ {
			vi := new(big.Int).Exp(g, exps[i], bigN)
			others = append(others, vi)
			if tr != nil {
				tr.Observe(1, fmt.Sprintf("biprime: v_%d = %v", i+1, vi))
			}
		}
		if !biprimeAccepts(bigN, v1, others) {
			return false, nil
		}
	}
	return true, nil
}

// biprimeExponent computes party `index`'s exponent for the biprimality
// round: (N − p₁ − q₁ + 1)/4 for party 1, (pᵢ + qᵢ)/4 otherwise. ok is
// false when the congruence constraints are violated (candidate must be
// resampled).
func biprimeExponent(index int, bigN, p, q *big.Int) (*big.Int, bool) {
	four := big.NewInt(4)
	var num *big.Int
	if index == 1 {
		num = new(big.Int).Sub(bigN, p)
		num.Sub(num, q)
		num.Add(num, big.NewInt(1))
	} else {
		num = new(big.Int).Add(p, q)
	}
	if new(big.Int).Mod(num, four).Sign() != 0 {
		return nil, false
	}
	return num.Div(num, four), true
}

// biprimeAccepts checks one round: v₁ ≡ ±∏ᵢ>₁ vᵢ (mod N).
func biprimeAccepts(bigN, v1 *big.Int, others []*big.Int) bool {
	w := big.NewInt(1)
	for _, v := range others {
		w.Mul(w, v)
		w.Mod(w, bigN)
	}
	if v1.Cmp(w) == 0 {
		return true
	}
	wNeg := new(big.Int).Sub(bigN, w)
	return v1.Cmp(wNeg) == 0
}

// sampleBiprimeBase draws a base g with Jacobi symbol (g/N) = 1. ok=false
// signals gcd(g, N) > 1, i.e. N is composite and the candidate dies.
func sampleBiprimeBase(bigN *big.Int, rng io.Reader) (g *big.Int, ok bool, err error) {
	for {
		g, err = rand.Int(rng, bigN)
		if err != nil {
			return nil, false, fmt.Errorf("sharedrsa: sample biprime base: %w", err)
		}
		if g.Cmp(big.NewInt(2)) < 0 {
			continue
		}
		switch big.Jacobi(g, bigN) {
		case 1:
			return g, true, nil
		case 0:
			return nil, false, nil
		default:
			// Jacobi symbol −1: resample.
		}
	}
}

// deriveExponentShares computes the additive shares of the private
// exponent with the small-public-exponent trick: the parties reveal only
// φ(N) mod e, and each derives dᵢ from ζ and its own φ share. It returns
// ok=false if gcd(e, φ(N)) ≠ 1.
func deriveExponentShares(bigN *big.Int, pShares, qShares []*big.Int, e *big.Int, rng io.Reader, tr *Transcript) ([]Share, []PartyView, bool, error) {
	n := len(pShares)
	phi := make([]*big.Int, n)
	for i := range phi {
		phi[i] = phiShare(i+1, bigN, pShares[i], qShares[i])
	}

	// Blinded secure-sum of φ mod e (only the result is revealed; it is
	// public anyway once certificates circulate).
	vals := make([]*big.Int, n)
	for i := range phi {
		vals[i] = new(big.Int).Mod(phi[i], e) // Mod is Euclidean: result in [0, e)
	}
	phiModE, err := secureSum(vals, e, rng, tr)
	if err != nil {
		return nil, nil, false, err
	}
	z, ok := zeta(phiModE, e)
	if !ok {
		return nil, nil, false, nil // e divides φ
	}

	shares := make([]Share, n)
	views := make([]PartyView, n)
	for i := range phi {
		di := exponentShare(z, phi[i], e)
		shares[i] = Share{Index: i + 1, D: di}
		views[i] = PartyView{
			Index:    i + 1,
			PShare:   new(big.Int).Set(pShares[i]),
			QShare:   new(big.Int).Set(qShares[i]),
			PhiShare: new(big.Int).Set(phi[i]),
			DShare:   new(big.Int).Set(di),
		}
	}
	return shares, views, true, nil
}

// phiShare computes party `index`'s additive share of φ(N):
// φ₁ = N − p₁ − q₁ + 1 and φᵢ = −(pᵢ + qᵢ) for i > 1.
func phiShare(index int, bigN, p, q *big.Int) *big.Int {
	if index == 1 {
		out := new(big.Int).Sub(bigN, p)
		out.Sub(out, q)
		out.Add(out, big.NewInt(1))
		return out
	}
	return new(big.Int).Neg(new(big.Int).Add(p, q))
}

// zeta computes ζ = −(φ mod e)⁻¹ mod e from the revealed residue. ok is
// false when gcd(e, φ) ≠ 1.
func zeta(phiModE, e *big.Int) (*big.Int, bool) {
	if phiModE.Sign() == 0 {
		return nil, false
	}
	z := new(big.Int).ModInverse(phiModE, e)
	if z == nil {
		return nil, false
	}
	z.Neg(z)
	z.Mod(z, e)
	return z, true
}

// exponentShare computes dᵢ = ⌊ζ·φᵢ/e⌋ (floor division; Go's Euclidean
// Div floors for positive divisors).
func exponentShare(zeta, phi, e *big.Int) *big.Int {
	d := new(big.Int).Mul(zeta, phi)
	return d.Div(d, e)
}

// trialSignature signs and verifies a fixed probe message, validating the
// exponent shares (and flushing out composite N survivors).
func trialSignature(pk PublicKey, shares []Share) error {
	_, err := SignJointly([]byte("sharedrsa keygen probe"), pk, shares)
	return err
}
