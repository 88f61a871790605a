package sharedrsa

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"sort"
	"strconv"
	"strings"
)

// ThresholdShares realizes the m-of-n sharing of Section 3.3 by replicated
// additive resharing: the exponent d = Σ dᵢ is rewritten as Σ_T d_T over
// all subsets T ⊆ {1..n} of size n−m+1, and d_T is handed to every party
// in T. Any m parties jointly cover every T (|T| + m > n), so any m can
// sign; any m−1 parties miss at least one T, so they cannot.
//
// The replication factor is C(n, n−m+1) sub-shares — exponential in
// general but tiny at coalition scale (n ≤ 9), and experiment E3
// (cmd/experiments) checks the count.
type ThresholdShares struct {
	M, N   int
	Public PublicKey
	// holdings[p] maps subset key → the party's copy of d_T.
	holdings []map[string]*big.Int
	// subsets lists each subset's member indices (1-based).
	subsets map[string][]int
}

// Reshare converts an n-of-n additive sharing into an m-of-n threshold
// sharing. Each party locally splits its dᵢ into random summands, one per
// subset, and distributes them; the parties in subset T hold the summed
// sub-share d_T = Σᵢ d_{i,T}.
func Reshare(pk PublicKey, shares []Share, m int, rng io.Reader) (*ThresholdShares, error) {
	n := len(shares)
	if n < 2 {
		return nil, ErrTooFewParties
	}
	if m < 1 || m > n {
		return nil, fmt.Errorf("sharedrsa: threshold %d of %d out of range", m, n)
	}
	if rng == nil {
		rng = rand.Reader
	}
	subsets := subsetsOfSize(n, n-m+1)
	ts := &ThresholdShares{
		M:        m,
		N:        n,
		Public:   pk,
		holdings: make([]map[string]*big.Int, n+1),
		subsets:  make(map[string][]int, len(subsets)),
	}
	for p := 1; p <= n; p++ {
		ts.holdings[p] = make(map[string]*big.Int)
	}
	for _, subset := range subsets {
		key := subsetKey(subset)
		ts.subsets[key] = subset
		for _, p := range subset {
			ts.holdings[p][key] = new(big.Int)
		}
	}
	// Each party i rewrites dᵢ = Σ_T d_{i,T} with all but the last summand
	// random; every member of T accumulates d_T = Σᵢ d_{i,T}, so
	// Σ_T d_T = Σᵢ dᵢ and the signature exponent is preserved. The summand
	// range is wide enough to statistically hide dᵢ from subset holders.
	bound := new(big.Int).Lsh(big.NewInt(1), uint(pk.N.BitLen()+64))
	keys := sortedKeys(ts.subsets)
	for _, sh := range shares {
		remaining := new(big.Int).Set(sh.D)
		for j, key := range keys {
			var part *big.Int
			if j < len(keys)-1 {
				r, err := rand.Int(rng, bound)
				if err != nil {
					return nil, fmt.Errorf("sharedrsa: reshare: %w", err)
				}
				part = r
				remaining.Sub(remaining, r)
			} else {
				part = remaining
			}
			for _, p := range ts.subsets[key] {
				ts.holdings[p][key].Add(ts.holdings[p][key], part)
			}
		}
	}
	return ts, nil
}

// QuorumSign produces a joint signature from the given quorum of party
// indices (1-based). Each subset T is served by its lowest-indexed quorum
// member; if some T has no member in the quorum the threshold is not met
// and ErrQuorum is returned. The per-party exponent is the sum of its
// assigned d_T values.
func (ts *ThresholdShares) QuorumSign(msg []byte, quorum []int) (Signature, error) {
	inQuorum := make(map[int]bool, len(quorum))
	for _, p := range quorum {
		if p < 1 || p > ts.N {
			return Signature{}, fmt.Errorf("sharedrsa: party %d out of range", p)
		}
		inQuorum[p] = true
	}
	if len(inQuorum) < ts.M {
		return Signature{}, fmt.Errorf("sharedrsa: %d distinct parties, need %d: %w",
			len(inQuorum), ts.M, ErrQuorum)
	}
	// Assign each subset to its lowest-indexed present member.
	assigned := make(map[int]*big.Int) // party -> summed exponent
	for key, subset := range ts.subsets {
		server := 0
		for _, p := range subset {
			if inQuorum[p] {
				server = p
				break
			}
		}
		if server == 0 {
			return Signature{}, fmt.Errorf("sharedrsa: subset %s unserved: %w", key, ErrQuorum)
		}
		acc, ok := assigned[server]
		if !ok {
			acc = new(big.Int)
			assigned[server] = acc
		}
		acc.Add(acc, ts.holdings[server][key])
	}
	partials := make([]PartialSignature, 0, len(assigned))
	h := hashToModulus(msg, ts.Public.N)
	for p, exp := range assigned {
		v, err := modExpSigned(h, exp, ts.Public.N)
		if err != nil {
			return Signature{}, fmt.Errorf("sharedrsa: quorum partial (party %d): %w", p, err)
		}
		partials = append(partials, PartialSignature{Index: p, V: v})
	}
	sig, err := Combine(msg, ts.Public, partials, ts.N)
	if err != nil {
		return Signature{}, fmt.Errorf("sharedrsa: quorum sign: %w", err)
	}
	return sig, nil
}

// SubsetCount returns the number of replicated sub-shares (the C(n,n−m+1)
// blowup experiment E3 checks).
func (ts *ThresholdShares) SubsetCount() int { return len(ts.subsets) }

// HoldingsOf returns how many sub-shares one party stores.
func (ts *ThresholdShares) HoldingsOf(party int) int {
	if party < 1 || party >= len(ts.holdings) {
		return 0
	}
	return len(ts.holdings[party])
}

func subsetsOfSize(n, k int) [][]int {
	var out [][]int
	cur := make([]int, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(cur) == k {
			s := make([]int, k)
			copy(s, cur)
			out = append(out, s)
			return
		}
		for v := start; v <= n-(k-len(cur))+1; v++ {
			cur = append(cur, v)
			rec(v + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(1)
	return out
}

func subsetKey(subset []int) string {
	parts := make([]string, len(subset))
	for i, v := range subset {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

func sortedKeys(m map[string][]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
