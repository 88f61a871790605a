package authz

// Tests for the key-epoch lifetime of the verified-certificate cache
// (snapshot.go): a long-lived server whose cache survives every mutation
// must decide exactly like a server rebuilt cold from the same history;
// puts from requests pinned to old snapshots must never revive a revoked
// principal; only an anchor change starts an empty cache; the cache is
// bounded and a hit takes no write lock.

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jointadmin/internal/acl"
	"jointadmin/internal/clock"
	"jointadmin/internal/obs"
	"jointadmin/internal/pki"
	"jointadmin/internal/sharedrsa"
	"jointadmin/internal/wal"
	"jointadmin/internal/wirefmt"
)

// newCacheFixture builds a private copy of the Figure 1 deployment — these
// tests advance its clock, fill its RA's registry and revoke its users —
// widened by six users (User_E4 … User_E9, two per CA).
func newCacheFixture(t *testing.T) *fixture {
	t.Helper()
	f, err := buildFixture()
	if err != nil {
		t.Fatal(err)
	}
	for i := 4; i <= 9; i++ {
		f.addUser(t, fmt.Sprintf("User_E%d", i), fmt.Sprintf("CA%d", i%3+1), clock.NewInterval(50, 5000))
	}
	return f
}

// addUser enrolls one more user at the named CA.
func (f *fixture) addUser(t *testing.T, user, ca string, validity clock.Interval) {
	t.Helper()
	kp, err := pki.GenerateKeyPair(512, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.cas[ca].Register(user, kp.Public())
	idc, err := f.cas[ca].IssueIdentity(user, validity)
	if err != nil {
		t.Fatal(err)
	}
	f.users[user], f.idCerts[user] = kp, idc
}

func (f *fixture) bound(users ...string) []pki.BoundSubject {
	out := make([]pki.BoundSubject, len(users))
	for i, u := range users {
		out[i] = pki.BoundSubject{Name: u, KeyID: f.users[u].KeyID()}
	}
	return out
}

// caOf returns the CA that enrolled user.
func (f *fixture) caOf(user string) string { return f.idCerts[user].Cert.Issuer }

// memJournal records belief mutations in memory (audit records are
// dropped: a rebuilt server does not need them).
type memJournal struct {
	mu   sync.Mutex
	recs []wal.Record
}

func (j *memJournal) Append(rec wal.Record, _ bool) (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if rec.Type == wal.TypeAudit {
		return 0, nil
	}
	rec.Seq = uint64(len(j.recs) + 1)
	j.recs = append(j.recs, rec)
	return rec.Seq, nil
}

func (j *memJournal) Empty() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.recs) == 0
}

func (j *memJournal) history() []wal.Record {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]wal.Record(nil), j.recs...)
}

// diffGroups are the requesting groups of the differential: the first
// three are on Object O's ACL, the others reach it only through links.
var diffGroups = []string{"G0", "G1", "G2", "G3", "G4", "G5"}

func diffStore(t *testing.T, clk *clock.Clock) *acl.Store {
	t.Helper()
	store := acl.NewStore(clk)
	var entries []acl.Entry
	for _, g := range diffGroups[:3] {
		entries = append(entries, acl.Entry{Group: g, Perms: []acl.Permission{acl.Read, acl.Write}})
	}
	objACL, err := acl.NewACL(entries...)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Create("O", objACL, []byte("v1"), "G0"); err != nil {
		t.Fatal(err)
	}
	return store
}

// outcome is what a caller can observe of a decision.
type outcome struct {
	allowed bool
	step    string
	reason  string
}

// verdict is everything the differentials compare of a decision: its
// outcome, the group it is recorded against, and the error text.
type verdict struct {
	outcome
	group, err string
}

func decide(s *Server, req AccessRequest) verdict {
	dec, err := s.Authorize(context.Background(), req)
	v := verdict{outcome: outcome{dec.Allowed, dec.DeniedStep, dec.Reason}, group: dec.Group}
	if err != nil {
		v.err = err.Error()
	}
	return v
}

// requireServingMatchesReplay decides req on the serving path of one
// fresh instrumented server and on the replay of another (each built by
// newServer), requires the two verdicts to agree and the serving decision
// to count one residual hit and no fallback, and returns the replay's
// verdict and the serving server's registry.
func requireServingMatchesReplay(t *testing.T, newServer func() *Server, req AccessRequest, when string) (verdict, *obs.Registry) {
	t.Helper()
	oracle := newServer()
	oracle.SetResidualsEnabled(false)
	want := decide(oracle, req)
	serving, reg := newServer(), obs.NewRegistry()
	serving.Instrument(reg)
	if got := decide(serving, req); got != want {
		t.Fatalf("%s: serving path diverges from the replay\nserving: %+v\nreplay:  %+v", when, got, want)
	}
	if hits, falls, _ := residualCounts(reg); hits != 1 || falls != 0 {
		t.Fatalf("%s: serving decision counted %d residual hits, %d fallbacks; want 1, 0", when, hits, falls)
	}
	return want, reg
}

// requireColdParity decides req on two servers freshly rebuilt from the
// journal — empty caches, one on the serving path and one on the replay —
// and twice on the long-lived one (carried entries, then the residue) and
// requires the four decisions to agree; it returns their outcome.
func requireColdParity(t *testing.T, live *Server, f *fixture, j *memJournal, req AccessRequest, when string) outcome {
	t.Helper()
	want, _ := requireServingMatchesReplay(t, func() *Server {
		cold, _, err := NewReplica("P", f.clk, diffStore(t, f.clk), nil, j.history())
		if err != nil {
			t.Fatalf("%s: rebuild from history: %v", when, err)
		}
		return cold
	}, req, when+", cold rebuilds")
	for pass := 0; pass < 2; pass++ {
		if got := decide(live, req); got != want {
			t.Fatalf("%s, pass %d: long-lived server diverges from the cold rebuild\nlong-lived: %+v\ncold:       %+v",
				when, pass, got, want)
		}
	}
	return want.outcome
}

// journaledServer builds a long-lived instrumented server over diffStore
// whose belief mutations land in a memJournal.
func (f *fixture) journaledServer(t *testing.T) (*Server, *obs.Registry, *memJournal) {
	t.Helper()
	j := &memJournal{}
	reg := obs.NewRegistry()
	live := NewServer("P", f.clk, f.anchors(0), diffStore(t, f.clk), nil)
	live.Instrument(reg)
	if err := live.SetJournal(j); err != nil {
		t.Fatal(err)
	}
	return live, reg, j
}

// revokeKeyOf has ca withdraw the binding of name to pk — used to revoke
// an authority's own key, which the CA API only does for enrolled names.
func (f *fixture) revokeKeyOf(t *testing.T, ca, name string, pk sharedrsa.PublicKey) IdentityRevocation {
	t.Helper()
	f.cas[ca].Register(name, pk)
	rev, err := f.cas[ca].RevokeIdentity(name, f.clk.Now())
	if err != nil {
		t.Fatal(err)
	}
	return IdentityRevocation{Cert: rev}
}

// TestCarriedCacheMatchesColdRebuild is the differential for the epoch
// cache and the residual decider's cold arm: a random sequence of every
// Mutation variant, with clock advances across certificate expiry, is
// driven through one long-lived journaling server; after every mutation
// each sampled pooled request is decided on two servers freshly rebuilt
// from the journal (empty caches: the serving path's cold arm, and the
// replay) and twice on the long-lived one (carried entries, then the
// residue), and the four decisions must agree on (Allowed, Group,
// DeniedStep, Reason, error).
func TestCarriedCacheMatchesColdRebuild(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runColdRebuildDifferential(t, seed) })
	}
}

func runColdRebuildDifferential(t *testing.T, seed int64) {
	f := newCacheFixture(t)
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()
	now := f.clk.Now()
	long := clock.NewInterval(50, 5000)
	short := clock.NewInterval(50, now.Add(25)) // expires mid-sequence
	f.addUser(t, "User_short", "CA1", short)

	users := []string{"User_D1", "User_D2", "User_D3", "User_E4", "User_E5", "User_E6", "User_E7", "User_E8", "User_E9"}
	certs := make(map[string]pki.Signed[pki.ThresholdAttribute])
	var pool []AccessRequest
	for i, g := range diffGroups {
		members := []string{users[i], users[(i+1)%len(users)], users[(i+2)%len(users)]}
		validity := long
		if g == "G2" {
			validity = short
		}
		ac, err := f.est.AA.IssueThreshold(g, 1+i%2, f.bound(members...), validity)
		if err != nil {
			t.Fatal(err)
		}
		certs[g] = ac
		pool = append(pool,
			f.thresholdRequest(t, ac, acl.Read, "O", nil, members[:2]...),
			f.thresholdRequest(t, ac, acl.Write, "O", []byte(g), members[1:]...),
			f.thresholdRequest(t, ac, acl.Read, "O", nil, members[0])) // sub-quorum for the 2-of-3 groups
	}
	shortAC, err := f.est.AA.IssueThreshold("G0", 1, f.bound("User_short"), long)
	if err != nil {
		t.Fatal(err)
	}
	pool = append(pool, f.thresholdRequest(t, shortAC, acl.Read, "O", nil, "User_short"))
	for _, u := range []string{"User_E7", "User_E8"} {
		single, err := f.est.AA.IssueAttribute("G1", f.bound(u)[0], long)
		if err != nil {
			t.Fatal(err)
		}
		req := AccessRequest{SingleSubject: true, Single: single, Identities: []pki.Signed[pki.Identity]{f.idCerts[u]}}
		r, err := SignRequest(u, now, acl.Read, "O", nil, f.users[u])
		if err != nil {
			t.Fatal(err)
		}
		req.Requests = append(req.Requests, r)
		pool = append(pool, req)
	}
	// Delegation chain User_E4 > User_E5 > User_E6 into G0, installed link
	// by link by the delegate mutations below; the pooled delegated reads
	// are denied until their chain exists.
	chain := []pki.Signed[pki.Delegation]{
		f.issueDelegation(t, "", "User_E4", "G0", 2, "read,write"),
		f.issueDelegation(t, "User_E4", "User_E5", "G0", 1, "read"),
		f.issueDelegation(t, "User_E5", "User_E6", "G0", 0, "read"),
	}
	// A root grant whose leaf certificate expires mid-sequence.
	shortGrant, err := f.est.AA.IssueDelegation("", f.bound("User_E7")[0], "G1", 0, "read", short)
	if err != nil {
		t.Fatal(err)
	}
	chain = append(chain, shortGrant)
	for i, u := range []string{"User_E4", "User_E5", "User_E6", "User_E7"} {
		pool = append(pool, f.delegatedReadRequest(t, u, chain[i]))
	}

	live, reg, j := f.journaledServer(t)

	installed := 0
	nextMutation := func() Mutation {
		at := f.clk.Now()
		group := diffGroups[rng.Intn(len(diffGroups))]
		switch k := rng.Intn(15); {
		case k < 2:
			link, err := f.est.AA.IssueGroupLink(diffGroups[3+rng.Intn(3)], diffGroups[rng.Intn(3)], clock.NewInterval(50, at.Add(int64(10+rng.Intn(60)))))
			if err != nil {
				t.Fatal(err)
			}
			return GroupLink{Cert: link}
		case k < 4:
			// An edge one or two groups down: G5 reaches the ACL only over
			// several hops, within the edges' depth bounds.
			sub := 3 + rng.Intn(3)
			edge, err := f.est.AA.IssueGroupGraphLink(diffGroups[sub], diffGroups[sub-1-rng.Intn(2)], rng.Intn(3), long)
			if err != nil {
				t.Fatal(err)
			}
			return GroupGraphLink{Cert: edge}
		case k < 6:
			rev, err := f.ra.Revoke(certs[group], at)
			if err != nil {
				t.Fatal(err)
			}
			return Revocation{Cert: rev}
		case k < 7:
			// Sever the delegation chain at a random link.
			rev, err := f.ra.RevokeSubject("G0", f.bound(users[3+rng.Intn(3)])[0], at)
			if err != nil {
				t.Fatal(err)
			}
			return Revocation{Cert: rev}
		case k < 9:
			u := users[rng.Intn(len(users))]
			rev, err := f.cas[f.caOf(u)].RevokeIdentity(u, at)
			if err != nil {
				t.Fatal(err)
			}
			return IdentityRevocation{Cert: rev}
		case k < 11:
			// Revoke at the RA without delivering; the CRL delivers it (and
			// whatever else the registry holds that is not yet believed).
			if _, err := f.ra.Revoke(certs[group], at); err != nil {
				t.Fatal(err)
			}
			crl, err := f.ra.PublishCRL()
			if err != nil {
				t.Fatal(err)
			}
			return CRL{List: crl}
		case k < 14:
			if installed < len(chain) {
				installed++
				return Delegation{Cert: chain[installed-1]}
			}
			return Delegation{Cert: f.issueDelegation(t, "", users[rng.Intn(len(users))], group, rng.Intn(2), "read")}
		default:
			// A CA's own key is withdrawn: every identity it issued dies
			// with it, cached or not, until the next re-anchoring.
			ca := fmt.Sprintf("CA%d", 1+rng.Intn(3))
			return f.revokeKeyOf(t, ca, ca, f.cas[ca].Public())
		}
	}

	verbs := make(map[string]int)
	denials := make(map[string]int)
	approvals := 0
	for step := 0; step < 36; step++ {
		m := nextMutation()
		if step%12 == 11 {
			// A new key epoch under the same anchors: the cache starts over,
			// every belief carries (the anchors still verify it), and the
			// pool stays valid.
			m = Reanchor{Anchors: f.anchors(0)}
		}
		// A refused mutation (a depth-exhausted delegation, a CRL with
		// nothing new) journals nothing and changes nothing on either side.
		if err := live.Apply(ctx, m); err == nil {
			verbs[m.Verb()]++
		}
		f.clk.Advance(int64(1 + rng.Intn(3)))
		for _, i := range rng.Perm(len(pool))[:10] {
			want := requireColdParity(t, live, f, j, pool[i], fmt.Sprintf("step %d after %s, request %d", step, m.Verb(), i))
			if want.allowed {
				approvals++
			} else {
				denials[want.step]++
			}
		}
	}

	// The run must have exercised what it claims to compare.
	for _, v := range Verbs {
		if verbs[v] == 0 {
			t.Errorf("no %q mutation was applied (seed %d)", v, seed)
		}
	}
	if approvals == 0 || denials[StepCerts] == 0 || denials[StepThreshold] == 0 || denials[StepACL] == 0 {
		t.Errorf("thin coverage: %d approvals, denials by step %v", approvals, denials)
	}
	hits, misses := counterTotal(reg, MetricCacheHits), counterTotal(reg, MetricCacheMisses)
	if hits < 4*misses {
		t.Errorf("cache was not carried across mutations: %d hits, %d misses", hits, misses)
	}
	t.Logf("seed %d: mutations %v, %d approvals, denials %v, cache %d hits / %d misses, %d dropped",
		seed, verbs, approvals, denials, hits, misses, counterTotal(reg, MetricCacheInvalidated))
}

// signIdentity signs an identity body with ca's key as pki.IssueIdentity
// would, without its check that KeyID names the subject key: over the
// identity's signed form, the "identity" kind tag then every field in
// order (DESIGN.md §7).
func signIdentity(t *testing.T, body pki.Identity, ca *pki.KeyPair) pki.Signed[pki.Identity] {
	t.Helper()
	signed := wirefmt.AppendString(nil, "identity")
	signed = wirefmt.AppendString(signed, body.Issuer)
	signed = wirefmt.AppendInt64(signed, int64(body.IssuedAt))
	for _, s := range []string{body.Subject, body.SubjectKey.N, body.SubjectKey.E, body.KeyID} {
		signed = wirefmt.AppendString(signed, s)
	}
	signed = wirefmt.AppendInt64(wirefmt.AppendInt64(signed, int64(body.NotBefore)), int64(body.NotAfter))
	sig, err := ca.Sign(signed)
	if err != nil {
		t.Fatal(err)
	}
	idc := pki.Signed[pki.Identity]{Cert: body, SignerKey: ca.KeyID(), SigS: sig.S.Text(16)}
	if err := pki.VerifyIdentity(idc, ca.Public(), body.NotBefore); err != nil {
		t.Fatalf("hand-signed identity does not verify: %v", err)
	}
	return idc
}

// TestColdDenialsMatchReplay: every way a request can be denied before
// Step 3 is decided on a fresh server — cold, so on the residual
// decider's cold arm — exactly as the replay decides it, counted as one
// residual hit and no fallback, and compiles no residue: only a verified
// membership certificate may name a group into the memo.
func TestColdDenialsMatchReplay(t *testing.T) {
	f := newCacheFixture(t)
	now, valid := f.clk.Now(), clock.NewInterval(50, 5000)
	newKey := func() *pki.KeyPair {
		kp, err := pki.GenerateKeyPair(512, nil)
		if err != nil {
			t.Fatal(err)
		}
		return kp
	}
	// CAX is trusted and signs whatever it is handed; CAY is not trusted.
	cax, cay := newKey(), newKey()
	anchors := f.anchors(0)
	anchors.CAKeys["CAX"] = cax.Public()
	objects := f.newServer(nil).Objects()
	newServer := func() *Server { return NewServer("P", f.clk, anchors, objects, nil) }

	// requestBy builds a read under a 1-of-1 threshold certificate for a
	// subject whose identity certificate is idc, bound to keyID and signed
	// for with signer.
	requestBy := func(idc pki.Signed[pki.Identity], keyID string, signer *pki.KeyPair) AccessRequest {
		ac, err := f.est.AA.IssueThreshold("G_read", 1, []pki.BoundSubject{{Name: idc.Cert.Subject, KeyID: keyID}}, valid)
		if err != nil {
			t.Fatal(err)
		}
		r, err := SignRequest(idc.Cert.Subject, now, acl.Read, "O", nil, signer)
		if err != nil {
			t.Fatal(err)
		}
		return AccessRequest{Threshold: ac, Identities: []pki.Signed[pki.Identity]{idc}, Requests: []UserRequest{r}}
	}
	identity := func(ca string, kp *pki.KeyPair, subject, keyID string, key sharedrsa.PublicKey) pki.Signed[pki.Identity] {
		return signIdentity(t, pki.Identity{Issuer: ca, IssuedAt: now, Subject: subject,
			SubjectKey: pki.NewKeyInfo(key), KeyID: keyID, NotBefore: 50, NotAfter: 5000}, kp)
	}
	mallory := newKey()
	zero := sharedrsa.PublicKey{N: big.NewInt(0), E: big.NewInt(65537)}

	tamperedID := f.writeRequest(t, []byte("x"), "User_D1", "User_D2")
	tamperedID.Identities[1].SigS = tamperedID.Identities[0].SigS
	foreign := f.writeRequest(t, []byte("x"), "User_D1", "User_D2")
	foreign.Threshold.Cert.Issuer = "EvilAA"
	tamperedAC := f.writeRequest(t, []byte("x"), "User_D1")
	tamperedAC.Threshold.Cert.M = 1
	freshGroup := f.writeRequest(t, []byte("x"), "User_D1", "User_D2")
	freshGroup.Threshold.Cert.Group = "G_fresh"
	tamperedSingle := f.singleReadRequest(t, "User_D3")
	tamperedSingle.Single.Cert.NotAfter--
	tamperedDeleg := f.delegatedReadRequest(t, "User_D1", f.issueDelegation(t, "", "User_D1", "G_read", 0, "read"))
	tamperedDeleg.Delegation.Cert.Depth++
	unchained := f.delegatedReadRequest(t, "User_D2", f.issueDelegation(t, "", "User_D2", "G_read", 0, "read"))
	aaKeyRevoked := f.revokeKeyOf(t, "CA2", "AA", f.est.AA.Public())

	for _, tc := range []struct {
		name  string
		setup Mutation // applied to both servers first, when set
		req   AccessRequest
		step  string
		cause string // a substring of the denial's reason, when set
	}{
		{"empty request", nil, AccessRequest{Threshold: f.writeAC}, StepFreshness, ""},
		{"untrusted CA", nil, requestBy(identity("CAY", cay, "Mallory_D1", mallory.KeyID(), mallory.Public()), mallory.KeyID(), mallory), StepCerts, "untrusted CA CAY"},
		{"tampered identity signature", nil, tamperedID, StepCerts, "identity certificate invalid"},
		{"identity KeyID mismatch", nil, requestBy(identity("CAX", cax, "Mallory_D1", "kX", mallory.Public()), "kX", mallory), StepCerts,
			"key ID kX does not name the subject key"},
		{"zero-modulus key", nil, requestBy(identity("CAX", cax, "Zero_D1", zero.KeyID(), zero), zero.KeyID(), mallory), StepCerts,
			"identity certificate key malformed: pki: malformed certificate: bad modulus"},
		{"foreign membership issuer", nil, foreign, StepThreshold, ""},
		{"tampered threshold certificate", nil, tamperedAC, StepThreshold, ""},
		{"rejected certificate naming a fresh group", nil, freshGroup, StepThreshold, ""},
		{"tampered single-subject certificate", nil, tamperedSingle, StepThreshold, ""},
		{"tampered delegation certificate", nil, tamperedDeleg, StepThreshold, ""},
		{"delegated subject with no chain", nil, unchained, StepThreshold, ""},
		{"revoked AA key", aaKeyRevoked, f.writeRequest(t, []byte("x"), "User_D1", "User_D2"), StepThreshold, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			setup := newServer
			if tc.setup != nil {
				setup = func() *Server {
					srv := newServer()
					if err := srv.Apply(context.Background(), tc.setup); err != nil {
						t.Fatal(err)
					}
					return srv
				}
			}
			want, reg := requireServingMatchesReplay(t, setup, tc.req, tc.name)
			if want.allowed || want.step != tc.step {
				t.Fatalf("decided %+v, want a denial at %s", want, tc.step)
			}
			if !strings.Contains(want.reason, tc.cause) {
				t.Fatalf("denied for %q, want %q", want.reason, tc.cause)
			}
			if _, _, compiles := residualCounts(reg); compiles != 0 {
				t.Fatalf("a rejected request compiled %d residues", compiles)
			}
		})
	}
}

// TestIssuerKeyRevocationReachesCachedCertificates pins the one belief a
// cached verification depends on besides its subject's standing: the
// issuer's own key. The cold derivation finds it with KeyFor, which skips
// a revoked key; on a hit it is a live leaf. A CA's key, then the AA's, is
// revoked under a warm cache, and every decision matches the cold
// rebuild's — a denial naming the missing key belief, on cache hits.
func TestIssuerKeyRevocationReachesCachedCertificates(t *testing.T) {
	f := newCacheFixture(t)
	live, reg, j := f.journaledServer(t)
	ctx := context.Background()
	ac, err := f.est.AA.IssueThreshold("G0", 1, f.bound("User_D1", "User_D2", "User_D3"), clock.NewInterval(50, 5000))
	if err != nil {
		t.Fatal(err)
	}
	byCA1 := f.thresholdRequest(t, ac, acl.Read, "O", nil, "User_D1")
	byCA2 := f.thresholdRequest(t, ac, acl.Read, "O", nil, "User_D2")
	mixed := f.thresholdRequest(t, ac, acl.Read, "O", nil, "User_D2", "User_D1")
	pool := []AccessRequest{byCA1, byCA2, mixed}
	for _, req := range pool {
		requireColdParity(t, live, f, j, req, "warm-up")
	}
	_, misses := counterTotal(reg, MetricCacheHits), counterTotal(reg, MetricCacheMisses)

	if err := live.Apply(ctx, f.revokeKeyOf(t, "CA1", "CA1", f.cas["CA1"].Public())); err != nil {
		t.Fatal(err)
	}
	f.clk.Tick()
	for i, want := range []outcome{
		{false, StepCerts, "no key belief for CA CA1"},
		{allowed: true},
		{false, StepCerts, "no key belief for CA CA1"},
	} {
		got := requireColdParity(t, live, f, j, pool[i], fmt.Sprintf("CA1's key revoked, request %d", i))
		if got.allowed != want.allowed || got.step != want.step || (!want.allowed && got.reason != want.reason) {
			t.Fatalf("CA1's key revoked, request %d: decided %+v, want %+v", i, got, want)
		}
	}

	if err := live.Apply(ctx, f.revokeKeyOf(t, "CA2", "AA", f.est.AA.Public())); err != nil {
		t.Fatal(err)
	}
	f.clk.Tick()
	if got := requireColdParity(t, live, f, j, byCA2, "AA's key revoked"); got != (outcome{false, StepThreshold, "no key belief for AA"}) {
		t.Fatalf("AA's key revoked: decided %+v", got)
	}
	requireColdParity(t, live, f, j, byCA1, "AA's and CA1's keys revoked")
	if got := counterTotal(reg, MetricCacheMisses); got != misses {
		t.Fatalf("denials re-verified certificates (%d misses -> %d): not decided on the carried entries", misses, got)
	}
}

// TestDelegatedHitRechecksLeafValidity: the believed chain may outlive the
// leaf certificate a request presents (another, longer-lived certificate
// installed it). Once that leaf expires the request is denied as the cold
// verification denies it — on the replay's hit branch and on the residual
// path alike — and the expired entry leaves the cache.
func TestDelegatedHitRechecksLeafValidity(t *testing.T) {
	f := newCacheFixture(t)
	live, reg, j := f.journaledServer(t)
	now := f.clk.Now()
	subject := f.bound("User_E4")[0]
	installed, err := f.est.AA.IssueDelegation("", subject, "G0", 0, "read", clock.NewInterval(50, 5000))
	if err != nil {
		t.Fatal(err)
	}
	presented, err := f.est.AA.IssueDelegation("", subject, "G0", 0, "read", clock.NewInterval(50, now.Add(5)))
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Apply(context.Background(), Delegation{Cert: installed}); err != nil {
		t.Fatal(err)
	}
	req := f.delegatedReadRequest(t, "User_E4", presented)
	if got := requireColdParity(t, live, f, j, req, "leaf valid"); !got.allowed {
		t.Fatalf("delegated read denied while its leaf is valid: %+v", got)
	}
	f.clk.Advance(10)
	for _, residual := range []bool{false, true} {
		live.SetResidualsEnabled(residual)
		live.state.Load().cache.put(pki.Fingerprint(presented), cachedCert{
			formula: pki.DelegationLinkFormula(presented), validity: clock.NewInterval(50, now.Add(5))})
		got := requireColdParity(t, live, f, j, req, fmt.Sprintf("leaf expired, residuals %v", residual))
		if got.allowed || got.step != StepThreshold {
			t.Fatalf("expired leaf honored (residuals %v): %+v", residual, got)
		}
		if _, ok := live.state.Load().cache.get(pki.Fingerprint(presented)); ok {
			t.Fatalf("expired entry still cached (residuals %v)", residual)
		}
	}
	if inv := counterTotal(reg, MetricCacheInvalidated); inv != 2 {
		t.Fatalf("%d expiry drops counted, want 2", inv)
	}
}

// TestLatePutsNeverReviveRevoked is the -race stress for the late put:
// readers pinned to the snapshot from before a revocation keep
// re-verifying the victim's certificates and putting them into the shared
// epoch cache (a dropper forces the re-puts) while the revocation —
// membership, identity or CRL — is applied. The pinned readers are
// rightly approved; a request that starts after Apply returned never is,
// whichever entries it finds. Run with -race -count=10.
func TestLatePutsNeverReviveRevoked(t *testing.T) {
	f := newCacheFixture(t)
	srv := f.newServer(nil)
	ctx := context.Background()
	victims := []string{"User_E4", "User_E5", "User_E6", "User_E7", "User_E8", "User_E9"}
	for round, victim := range victims {
		group := fmt.Sprintf("G_victim%d", round)
		ac, err := f.est.AA.IssueThreshold(group, 1, f.bound(victim), clock.NewInterval(50, 5000))
		if err != nil {
			t.Fatal(err)
		}
		link, err := f.est.AA.IssueGroupLink(group, "G_read", clock.NewInterval(50, 5000))
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Apply(ctx, GroupLink{Cert: link}); err != nil {
			t.Fatal(err)
		}
		req := f.thresholdRequest(t, ac, acl.Read, "O", nil, victim)
		fps := []string{pki.Fingerprint(ac), pki.Fingerprint(f.idCerts[victim])}

		var m Mutation
		switch round % 3 {
		case 0:
			rev, err := f.ra.Revoke(ac, f.clk.Now())
			if err != nil {
				t.Fatal(err)
			}
			m = Revocation{Cert: rev}
		case 1:
			rev, err := f.cas[f.caOf(victim)].RevokeIdentity(victim, f.clk.Now())
			if err != nil {
				t.Fatal(err)
			}
			m = IdentityRevocation{Cert: rev}
		default:
			if _, err := f.ra.Revoke(ac, f.clk.Now()); err != nil {
				t.Fatal(err)
			}
			crl, err := f.ra.PublishCRL()
			if err != nil {
				t.Fatal(err)
			}
			m = CRL{List: crl}
		}

		pinned := srv.state.Load()
		var (
			wg      sync.WaitGroup
			stop    atomic.Bool
			applied atomic.Bool
		)
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() { // pinned to the pre-revocation snapshot
				defer wg.Done()
				for !stop.Load() {
					for _, fp := range fps {
						pinned.cache.drop(fp)
					}
					if dec, err := srv.authorizeAt(ctx, pinned, req); err != nil || !dec.Allowed {
						t.Errorf("round %d: reader pinned before the revocation denied: %v", round, err)
						return
					}
				}
			}()
		}
		for r := 0; r < 2; r++ {
			wg.Add(1)
			go func() { // current snapshot
				defer wg.Done()
				for !stop.Load() {
					after := applied.Load()
					if dec, _ := srv.Authorize(ctx, req); dec.Allowed && after {
						t.Errorf("round %d (%s): revoked principal approved after Apply returned", round, m.Verb())
						return
					}
				}
			}()
		}
		if err := srv.Apply(ctx, m); err != nil {
			t.Errorf("round %d: apply %s: %v", round, m.Verb(), err)
		}
		applied.Store(true)
		for i := 0; i < 50 && !t.Failed(); i++ {
			if dec, _ := srv.Authorize(ctx, req); dec.Allowed {
				t.Errorf("round %d (%s): revoked principal approved after Apply returned", round, m.Verb())
			}
		}
		stop.Store(true)
		wg.Wait()
		if t.Failed() {
			return
		}
		if pinned.cache != srv.state.Load().cache {
			t.Fatal("a revocation replaced the epoch's cache")
		}
	}
}

// TestOnlyAnchorChangesStartAnEmptyCache: a mutation within the epoch
// hands the cache on; re-anchoring and NewReplica start with zero entries
// and the outgoing epoch's entries are counted as dropped.
func TestOnlyAnchorChangesStartAnEmptyCache(t *testing.T) {
	f := newFixture(t)
	srv, reg := f.instrumentedServer(nil)
	j := &memJournal{}
	if err := srv.SetJournal(j); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := srv.Authorize(ctx, f.readRequest(t, "User_D3")); err != nil {
		t.Fatal(err)
	}
	warm := srv.state.Load().cache
	entries := warm.len()
	if entries == 0 {
		t.Fatal("authorize cached nothing")
	}
	link, err := f.est.AA.IssueGroupLink("G_a", "G_b", clock.NewInterval(50, 5000))
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Apply(ctx, GroupLink{Cert: link}); err != nil {
		t.Fatal(err)
	}
	if st := srv.state.Load(); st.cache != warm || st.cache.len() != entries {
		t.Fatalf("group link did not hand the cache on (%d entries before, %d after)", entries, st.cache.len())
	}
	if inv := counterTotal(reg, MetricCacheInvalidated); inv != 0 {
		t.Fatalf("%d entries counted dropped before any anchor change", inv)
	}

	if err := srv.Apply(ctx, Reanchor{Anchors: f.anchors(0)}); err != nil {
		t.Fatal(err)
	}
	if st := srv.state.Load(); st.cache == warm || st.cache.len() != 0 {
		t.Fatalf("re-anchoring kept the old epoch's cache (%d entries)", st.cache.len())
	}
	if inv := counterTotal(reg, MetricCacheInvalidated); inv != int64(entries) {
		t.Fatalf("re-anchoring counted %d dropped entries, want %d", inv, entries)
	}

	replica, _, err := NewReplica("P", f.clk, acl.NewStore(f.clk), nil, j.history())
	if err != nil {
		t.Fatal(err)
	}
	if n := replica.state.Load().cache.len(); n != 0 {
		t.Fatalf("replica starts with %d cached entries", n)
	}
	// The re-anchoring carried the group link, which the same anchors
	// still verify.
	if sn := replica.Snapshot(); sn.Epoch != 1 || sn.Watermark != 1 {
		t.Fatalf("replica at epoch %d watermark %d, want 1/1", sn.Epoch, sn.Watermark)
	}
}

// TestCertCacheBounded: a stream of distinct certificates never grows the
// cache past certCacheCap, eviction is in insertion order, and the
// evictions a request causes land in authz_cert_cache_invalidated_total.
func TestCertCacheBounded(t *testing.T) {
	const extra = 1000
	f := newFixture(t)
	c := f.newServer(nil).state.Load().cache
	evicted := 0
	for i := 0; i < certCacheCap+extra; i++ {
		if c.put(fmt.Sprintf("fp%d", i), cachedCert{}) {
			evicted++
		}
		if n := c.len(); n > certCacheCap {
			t.Fatalf("cache holds %d entries after %d puts, bound %d", n, i+1, certCacheCap)
		}
	}
	if evicted != extra || c.len() != certCacheCap || len(c.ring) != certCacheCap {
		t.Fatalf("evicted %d (want %d), %d entries, ring %d (want %d)", evicted, extra, c.len(), len(c.ring), certCacheCap)
	}
	if _, ok := c.get(fmt.Sprintf("fp%d", extra-1)); ok {
		t.Error("oldest entries survived eviction")
	}
	if _, ok := c.get(fmt.Sprintf("fp%d", extra)); !ok {
		t.Error("an entry younger than the bound was evicted")
	}
	// An entry dropped on expiry leaves a stale ring slot behind; the bound
	// holds through it and a re-put of a present entry changes nothing.
	if !c.drop(fmt.Sprintf("fp%d", extra)) || c.drop("never stored") {
		t.Error("drop misreports what it removed")
	}
	if c.put("fp-last", cachedCert{}) || c.put("fp-last", cachedCert{note: "again"}) {
		t.Error("put over a stale slot, or of a present entry, reported an eviction")
	}
	if e, _ := c.get("fp-last"); e.note != "" || c.len() != certCacheCap {
		t.Errorf("re-put replaced the entry or broke the bound (%d entries)", c.len())
	}

	// Through the server: a full cache plus one cold request evicts one
	// entry per certificate verified, and says so.
	srv, reg := f.instrumentedServer(nil)
	full := srv.state.Load().cache
	for i := 0; i < certCacheCap; i++ {
		full.put(fmt.Sprintf("fp%d", i), cachedCert{})
	}
	if _, err := srv.Authorize(context.Background(), f.writeRequest(t, []byte("x"), "User_D1", "User_D2")); err != nil {
		t.Fatal(err)
	}
	if inv := counterTotal(reg, MetricCacheInvalidated); inv != 3 || full.len() != certCacheCap {
		t.Fatalf("cold request on a full cache: %d evictions counted (want 3), %d entries (want %d)", inv, full.len(), certCacheCap)
	}
}

// TestCacheHitTakesNoWriteLock: with the cache's read lock held
// elsewhere, warm decisions — residual and full replay — still complete;
// a hit path that wrote to the cache would block on the write lock.
func TestCacheHitTakesNoWriteLock(t *testing.T) {
	f := newFixture(t)
	srv, reg := f.instrumentedServer(nil)
	ctx := context.Background()
	req := f.readRequest(t, "User_D3")
	if _, err := srv.Authorize(ctx, req); err != nil {
		t.Fatal(err)
	}
	cache := srv.state.Load().cache
	cache.mu.RLock()
	done := make(chan error, 1)
	go func() {
		defer close(done)
		for _, residual := range []bool{true, false} {
			srv.SetResidualsEnabled(residual)
			if _, err := srv.Authorize(ctx, req); err != nil {
				done <- err
				return
			}
		}
	}()
	select {
	case err := <-done:
		cache.mu.RUnlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		cache.mu.RUnlock()
		t.Fatal("warm decision blocked on the cache's write lock")
	}
	if hits, misses := counterTotal(reg, MetricCacheHits), counterTotal(reg, MetricCacheMisses); hits < 4 || misses != 2 {
		t.Fatalf("warm decisions were not cache hits: %d hits, %d misses", hits, misses)
	}
}
