// Package keygenproto runs the Boneh–Franklin shared-RSA key generation as
// an actual message-passing protocol over the transport: each domain is a
// separate party (goroutine or process) that never reveals its additive
// prime shares. Party 1 coordinates the candidate search; the others are
// reactive co-generators.
//
// Wire rounds per accepted candidate:
//
//  1. sample   — coordinator announces the attempt; every party samples
//     its shares p_i, q_i locally (SamplePrimeShareAt).
//  2. sieve    — one blinded ring pass accumulates the residue vectors of
//     Σp_i and Σq_i modulo every sieve prime; only the coordinator learns
//     the (blinded-then-unblinded) sums.
//  3. bgw      — each party Shamir-shares p_i and q_i; point j of every
//     polynomial goes to party j; each party sums its points, multiplies
//     pointwise and returns the product point; the coordinator
//     interpolates N = pq at 0 and broadcasts it.
//  4. biprime  — per round the coordinator broadcasts a base g with
//     (g/N) = 1; parties return v_i = g^{e_i} mod N; the coordinator
//     checks v₁ ≡ ±Πv_i.
//  5. exponent — a blinded ring pass reveals φ(N) mod e to the
//     coordinator, which broadcasts ζ = −φ⁻¹ mod e; every party derives
//     d_i = ⌊ζφ_i/e⌋ locally.
//  6. probe    — a trial joint signature over the wire validates the
//     sharing (and evicts composite survivors).
//
// The in-process implementation (sharedrsa.GenerateShared) computes the
// same quantities through the same protomath helpers; tests cross-check
// the two.
package keygenproto

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"time"

	"jointadmin/internal/sharedrsa"
	"jointadmin/internal/transport"
)

// Message kinds.
const (
	kindInit     = "kg.init"
	kindSample   = "kg.sample"
	kindSieve    = "kg.sieve"
	kindReject   = "kg.reject"
	kindBGWShare = "kg.bgwshare"
	kindBGWPoint = "kg.bgwpoint"
	kindModulus  = "kg.modulus"
	kindBiprime  = "kg.biprime"
	kindBipV     = "kg.bipv"
	kindPhi      = "kg.phi"
	kindZeta     = "kg.zeta"
	kindProbe    = "kg.probe"
	kindPartial  = "kg.partial"
	kindDone     = "kg.done"
)

// Sentinel errors.
var (
	// ErrProtocol indicates an unexpected or malformed protocol message.
	ErrProtocol = errors.New("keygenproto: protocol violation")
	// ErrExhausted mirrors sharedrsa.ErrKeygenExhausted for the wire run.
	ErrExhausted = errors.New("keygenproto: attempt budget exhausted")
)

// Config sizes the protocol run.
type Config struct {
	Bits          int
	E             int64
	BiprimeRounds int
	MaxAttempts   int
	// Timeout bounds every individual receive.
	Timeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Bits == 0 {
		c.Bits = 128
	}
	if c.E == 0 {
		c.E = 65537
	}
	if c.BiprimeRounds == 0 {
		c.BiprimeRounds = 16
	}
	if c.MaxAttempts == 0 {
		c.MaxAttempts = sharedrsa.DefaultMaxAttempts(c.Bits)
	}
	if c.Timeout == 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// Outcome is one party's result: the shared public key and its own
// exponent share. No field contains another party's secrets.
type Outcome struct {
	Public   sharedrsa.PublicKey
	Share    sharedrsa.Share
	Attempts int
}

// wire payload; all big integers travel hex-encoded.
type msg struct {
	Field   string   `json:"field,omitempty"`
	Bits    int      `json:"bits,omitempty"`
	E       int64    `json:"e,omitempty"`
	Rounds  int      `json:"rounds,omitempty"`
	Attempt int      `json:"attempt,omitempty"`
	Round   int      `json:"round,omitempty"`
	AccP    []string `json:"accP,omitempty"`
	AccQ    []string `json:"accQ,omitempty"`
	PY      string   `json:"pY,omitempty"`
	QY      string   `json:"qY,omitempty"`
	X       int      `json:"x,omitempty"`
	Y       string   `json:"y,omitempty"`
	N       string   `json:"n,omitempty"`
	G       string   `json:"g,omitempty"`
	V       string   `json:"v,omitempty"`
	Acc     string   `json:"acc,omitempty"`
	Zeta    string   `json:"zeta,omitempty"`
	Probe   []byte   `json:"probe,omitempty"`
	Index   int      `json:"index,omitempty"`
	OK      bool     `json:"ok,omitempty"`
}

func send(ep transport.Endpoint, to, kind string, m msg) error {
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return ep.Send(to, kind, b)
}

// party carries the common per-party protocol state.
type party struct {
	ep      transport.Endpoint
	index   int      // 1-based
	peers   []string // peers[i-1] = name of party i
	n       int
	cfg     Config
	field   *big.Int
	e       *big.Int
	pending []transport.Envelope

	// per-attempt candidate state
	p, q *big.Int
}

func (pt *party) name(i int) string { return pt.peers[i-1] }

func (pt *party) next() string {
	if pt.index == pt.n {
		return pt.name(1)
	}
	return pt.name(pt.index + 1)
}

// recv returns the next message of one of the wanted kinds, buffering
// others (cross-party interleavings are bounded by the lockstep design).
func (pt *party) recv(kinds ...string) (transport.Envelope, msg, error) {
	match := func(k string) bool {
		for _, w := range kinds {
			if w == k {
				return true
			}
		}
		return false
	}
	for i, env := range pt.pending {
		if match(env.Kind) {
			pt.pending = append(pt.pending[:i], pt.pending[i+1:]...)
			var m msg
			if err := json.Unmarshal(env.Payload, &m); err != nil {
				return env, msg{}, fmt.Errorf("%w: %v", ErrProtocol, err)
			}
			return env, m, nil
		}
	}
	deadline := time.Now().Add(pt.cfg.Timeout)
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return transport.Envelope{}, msg{}, fmt.Errorf("%w: timed out waiting for %v", ErrProtocol, kinds)
		}
		env, err := pt.ep.RecvTimeout(remain)
		if err != nil {
			return transport.Envelope{}, msg{}, err
		}
		if !match(env.Kind) {
			pt.pending = append(pt.pending, env)
			continue
		}
		var m msg
		if err := json.Unmarshal(env.Payload, &m); err != nil {
			return env, msg{}, fmt.Errorf("%w: %v", ErrProtocol, err)
		}
		return env, m, nil
	}
}

func hexInt(s string) (*big.Int, error) {
	v, ok := new(big.Int).SetString(s, 16)
	if !ok {
		return nil, fmt.Errorf("%w: bad integer %q", ErrProtocol, s)
	}
	return v, nil
}

// sample draws this attempt's candidate shares.
func (pt *party) sample() error {
	var err error
	pt.p, err = sharedrsa.SamplePrimeShareAt(pt.index, pt.n, pt.cfg.Bits, nil)
	if err != nil {
		return err
	}
	pt.q, err = sharedrsa.SamplePrimeShareAt(pt.index, pt.n, pt.cfg.Bits, nil)
	return err
}

// addResidues adds this party's share residues into the ring accumulators.
func (pt *party) addResidues(accP, accQ []string, moduli []*big.Int) ([]string, []string, error) {
	outP := make([]string, len(moduli))
	outQ := make([]string, len(moduli))
	for j, m := range moduli {
		ap, err := hexInt(accP[j])
		if err != nil {
			return nil, nil, err
		}
		aq, err := hexInt(accQ[j])
		if err != nil {
			return nil, nil, err
		}
		ap.Add(ap, new(big.Int).Mod(pt.p, m))
		ap.Mod(ap, m)
		aq.Add(aq, new(big.Int).Mod(pt.q, m))
		aq.Mod(aq, m)
		outP[j] = ap.Text(16)
		outQ[j] = aq.Text(16)
	}
	return outP, outQ, nil
}

// deriveShare finishes the exponent step from the broadcast ζ.
func (pt *party) deriveShare(bigN, zeta *big.Int) sharedrsa.Share {
	phi := sharedrsa.PhiShare(pt.index, bigN, pt.p, pt.q)
	return sharedrsa.Share{Index: pt.index, D: sharedrsa.ExponentShare(zeta, phi, pt.e)}
}
