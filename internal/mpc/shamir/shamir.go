// Package shamir implements Shamir secret sharing over a prime field. It
// is the generic threshold substrate of the reproduction: the shared-RSA
// key generation protocol (internal/sharedrsa) uses it for the BGW-style
// secure multiplication that computes N = pq without revealing the
// factors, and tests use it to validate threshold reconstruction bounds.
package shamir

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// Share is one evaluation point (X, Y) of the sharing polynomial.
type Share struct {
	X *big.Int
	Y *big.Int
}

// String renders the share.
func (s Share) String() string { return fmt.Sprintf("(%v, %v)", s.X, s.Y) }

// Sentinel errors.
var (
	// ErrThreshold indicates an invalid (threshold, count) combination.
	ErrThreshold = errors.New("shamir: threshold must satisfy 1 <= k <= n")
	// ErrTooFewShares indicates reconstruction below the threshold.
	ErrTooFewShares = errors.New("shamir: not enough shares")
	// ErrBadField indicates a modulus unsuitable as field order.
	ErrBadField = errors.New("shamir: field order must be an odd prime exceeding the secret")
	// ErrDuplicateX indicates two shares with the same evaluation point.
	ErrDuplicateX = errors.New("shamir: duplicate share x-coordinate")
)

// Split shares secret among n parties with threshold k over GF(prime):
// any k shares reconstruct, any k-1 reveal nothing. Share i is the
// polynomial evaluated at x = i+1.
func Split(secret *big.Int, k, n int, prime *big.Int, rng io.Reader) ([]Share, error) {
	if k < 1 || k > n {
		return nil, ErrThreshold
	}
	if prime == nil || prime.Sign() <= 0 || prime.Bit(0) == 0 || secret.Cmp(prime) >= 0 || secret.Sign() < 0 {
		return nil, ErrBadField
	}
	if rng == nil {
		rng = rand.Reader
	}
	// coeffs[0] = secret; degree k-1 polynomial.
	coeffs := make([]*big.Int, k)
	coeffs[0] = new(big.Int).Set(secret)
	for i := 1; i < k; i++ {
		c, err := rand.Int(rng, prime)
		if err != nil {
			return nil, fmt.Errorf("shamir: sample coefficient: %w", err)
		}
		coeffs[i] = c
	}
	shares := make([]Share, n)
	for i := 0; i < n; i++ {
		x := big.NewInt(int64(i + 1))
		shares[i] = Share{X: x, Y: eval(coeffs, x, prime)}
	}
	return shares, nil
}

// eval computes the polynomial at x by Horner's rule mod prime.
func eval(coeffs []*big.Int, x, prime *big.Int) *big.Int {
	y := new(big.Int)
	for i := len(coeffs) - 1; i >= 0; i-- {
		y.Mul(y, x)
		y.Add(y, coeffs[i])
		y.Mod(y, prime)
	}
	return y
}

// Interpolate evaluates the unique polynomial through the shares at x0.
// The shared-RSA protocol uses x0 = 0 on degree-2t product polynomials.
func Interpolate(shares []Share, x0, prime *big.Int) (*big.Int, error) {
	if len(shares) == 0 {
		return nil, ErrTooFewShares
	}
	if prime == nil || prime.Sign() <= 0 {
		return nil, ErrBadField
	}
	seen := make(map[string]bool, len(shares))
	for _, s := range shares {
		key := s.X.String()
		if seen[key] {
			return nil, ErrDuplicateX
		}
		seen[key] = true
	}
	acc := new(big.Int)
	num := new(big.Int)
	den := new(big.Int)
	term := new(big.Int)
	for i, si := range shares {
		num.SetInt64(1)
		den.SetInt64(1)
		for j, sj := range shares {
			if i == j {
				continue
			}
			// num *= (x0 - xj); den *= (xi - xj)
			term.Sub(x0, sj.X)
			num.Mul(num, term)
			num.Mod(num, prime)
			term.Sub(si.X, sj.X)
			den.Mul(den, term)
			den.Mod(den, prime)
		}
		if den.Sign() == 0 {
			return nil, ErrDuplicateX
		}
		den.ModInverse(den, prime)
		if den == nil {
			return nil, ErrBadField
		}
		term.Mul(si.Y, num)
		term.Mod(term, prime)
		term.Mul(term, den)
		term.Mod(term, prime)
		acc.Add(acc, term)
		acc.Mod(acc, prime)
	}
	return acc, nil
}

// AddShares returns pointwise sums of two share vectors (a sharing of the
// sum of the secrets). Both vectors must align on x-coordinates.
func AddShares(a, b []Share, prime *big.Int) ([]Share, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("shamir: share vectors differ in length (%d vs %d)", len(a), len(b))
	}
	out := make([]Share, len(a))
	for i := range a {
		if a[i].X.Cmp(b[i].X) != 0 {
			return nil, fmt.Errorf("shamir: share %d x-coordinates differ", i)
		}
		y := new(big.Int).Add(a[i].Y, b[i].Y)
		y.Mod(y, prime)
		out[i] = Share{X: new(big.Int).Set(a[i].X), Y: y}
	}
	return out, nil
}

// MulPointwise returns pointwise products of two share vectors: shares of
// the product polynomial of doubled degree. With n points and degree-t
// inputs (2t < n), Interpolate(·, 0) of the result yields the product of
// the secrets — the BGW multiplication step used to compute N = pq.
func MulPointwise(a, b []Share, prime *big.Int) ([]Share, error) {
	if len(a) != len(b) {
		return nil, fmt.Errorf("shamir: share vectors differ in length (%d vs %d)", len(a), len(b))
	}
	out := make([]Share, len(a))
	for i := range a {
		if a[i].X.Cmp(b[i].X) != 0 {
			return nil, fmt.Errorf("shamir: share %d x-coordinates differ", i)
		}
		y := new(big.Int).Mul(a[i].Y, b[i].Y)
		y.Mod(y, prime)
		out[i] = Share{X: new(big.Int).Set(a[i].X), Y: y}
	}
	return out, nil
}
