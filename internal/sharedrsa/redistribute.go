package sharedrsa

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
)

// maskSigma is the statistical margin of Redistribute's masks: each
// entry is drawn from (−2^(|N|+maskSigma), 2^(|N|+maskSigma)), so a dealt
// value of |N| bits hides behind its masks up to a statistical distance
// of about 2^−maskSigma.
const maskSigma = 64

// redistributeProbe is the message Redistribute's trial signature signs.
var redistributeProbe = []byte("sharedrsa redistribution probe")

// Redistribute deals the private exponent that shares hold among a new
// set of parties without changing the key: N, e and d stay, and only who
// holds which additive share changes. It is the one dealing function of
// the coalition's membership change (a join or a leave every domain
// cooperates in) and of Wu–Malkin–Boneh's proactive refresh (cited in
// Section 6), which is the case where nobody leaves and nobody joins.
//
// The new parties are the old ones that stay, in order, then joining
// newcomers; they are indexed 1.. in that order. Every old party deals
// one row over the new parties: a party that stays deals a zero-sharing
// (its row sums to 0) and keeps its share; a party that leaves
// (leaving[i], leaving nil for none) deals its share d_i (its row sums
// to d_i) and then holds nothing. New share j is the share its holder
// kept — none for a newcomer — plus the sum of column j. So for a join
// the n members deal a zero-sharing over n+1 columns and the newcomer's
// share is its column's sum; for a leave the departing party's share is
// spread over the parties that stay, on top of their zero-sharings.
// The column sums add up to the departing shares, so Σ d_j is unchanged
// and the new shares sign under the unchanged key, while an old share
// combines with no set of new ones (the masks do not cancel).
//
// Each row entry is uniform in (−2^w, 2^w) with w = |N| + maskSigma,
// except the one that balances the row: the dealer's own column for a
// party that stays, the last column for one that leaves. The width is
// fixed by the modulus, not by the current shares, so a share moves by
// a random walk of such steps and stays within a few bits of w however
// many changes run (TestRedistributeSharesStayBounded).
//
// Before returning, Redistribute signs a fixed probe with the new shares
// and verifies it under pk; the correction the combiner found (the
// bounded remainder of a Boneh–Franklin sharing, see Combine) is folded
// into the first new share, so the new shares sum to a working exponent
// and every later signature combines at correction 0, however few
// parties remain. A sharing the probe does not verify under is an error.
func Redistribute(pk PublicKey, shares []Share, leaving []bool, joining int, rng io.Reader) ([]Share, error) {
	if leaving != nil && len(leaving) != len(shares) {
		return nil, fmt.Errorf("sharedrsa: redistribute: %d leaving flags for %d shares", len(leaving), len(shares))
	}
	if !pk.verifiable() {
		return nil, fmt.Errorf("sharedrsa: redistribute: %w", ErrBadSignature)
	}
	gone := func(i int) bool { return leaving != nil && leaving[i] }
	var out []Share
	col := make([]int, len(shares)) // old party → its new column, −1 when it leaves
	for i, s := range shares {
		if s.D == nil {
			return nil, fmt.Errorf("sharedrsa: share %d has no exponent", s.Index)
		}
		col[i] = -1
		if !gone(i) {
			col[i] = len(out)
			out = append(out, Share{Index: len(out) + 1, D: new(big.Int).Set(s.D)})
		}
	}
	for range joining {
		out = append(out, Share{Index: len(out) + 1, D: new(big.Int)})
	}
	m := len(out)
	if m < 2 {
		return nil, ErrTooFewParties
	}
	if rng == nil {
		rng = rand.Reader
	}
	w := uint(pk.N.BitLen() + maskSigma)
	span := new(big.Int).Lsh(big.NewInt(1), w+1)
	half := new(big.Int).Lsh(big.NewInt(1), w)
	for i, s := range shares {
		balance, rest := col[i], new(big.Int)
		if gone(i) {
			balance = m - 1
			rest.Set(s.D)
		}
		for j := range m {
			if j == balance {
				continue
			}
			r, err := rand.Int(rng, span)
			if err != nil {
				return nil, fmt.Errorf("sharedrsa: redistribute: %w", err)
			}
			r.Sub(r, half)
			out[j].D.Add(out[j].D, r)
			rest.Sub(rest, r)
		}
		out[balance].D.Add(out[balance].D, rest)
	}
	sig, err := signJointly(redistributeProbe, pk, out, max(len(shares), m))
	if err != nil {
		return nil, fmt.Errorf("sharedrsa: redistribute: %w", err)
	}
	out[0].D.Add(out[0].D, big.NewInt(int64(sig.Correction)))
	return out, nil
}
