package sharedrsa

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
)

// secureSum computes Σ values mod m with the classic blinded ring
// protocol: the initiator (party 1) adds a random blinding R, the
// accumulator travels the ring with each party adding its value, and the
// initiator removes R. Only the initiator learns the sum; intermediate
// parties see uniformly distributed accumulators.
//
// The transcript records what each party observed, feeding the collusion
// experiment E8: any proper subset of parties sees only blinded values.
func secureSum(values []*big.Int, m *big.Int, rng io.Reader, tr *Transcript) (*big.Int, error) {
	if len(values) == 0 {
		return nil, fmt.Errorf("sharedrsa: secure sum over no values")
	}
	if m == nil || m.Sign() <= 0 {
		return nil, fmt.Errorf("sharedrsa: secure sum modulus must be positive")
	}
	if rng == nil {
		rng = rand.Reader
	}
	blind, err := rand.Int(rng, m)
	if err != nil {
		return nil, fmt.Errorf("sharedrsa: sample blinding: %w", err)
	}
	acc := new(big.Int).Set(blind)
	for i, v := range values {
		acc.Add(acc, v)
		acc.Mod(acc, m)
		if tr != nil && i+1 < len(values) {
			// Party i+2 observes the accumulator before adding its own
			// value (ring order 1 → 2 → ... → n → 1).
			tr.Observe(i+2, fmt.Sprintf("securesum mod %v: accumulator %v", m, acc))
		}
	}
	acc.Sub(acc, blind)
	acc.Mod(acc, m)
	if tr != nil {
		tr.Observe(1, fmt.Sprintf("securesum mod %v: sum %v", m, acc))
	}
	return acc, nil
}

// Transcript records, per party, everything that party observed during the
// protocol beyond its own secrets. Collusion tests union the views of a
// coalition and check that the private key is not derivable (E8).
type Transcript struct {
	views map[int][]string
}

// NewTranscript returns an empty transcript.
func NewTranscript() *Transcript {
	return &Transcript{views: make(map[int][]string)}
}

// Observe appends an observation to the party's view.
func (t *Transcript) Observe(party int, what string) {
	t.views[party] = append(t.views[party], what)
}

// View returns a copy of one party's observations.
func (t *Transcript) View(party int) []string {
	v := t.views[party]
	out := make([]string, len(v))
	copy(out, v)
	return out
}
