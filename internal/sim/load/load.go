// Coalition-scale load fixture for the repository benchmark (benchmark/):
// a coalition whose principal space reaches 10^5–10^6 members without
// minting 10^6 RSA keys, a heavy-tailed pool of pre-signed requests
// (zipfian hot objects and hot signers, joint writes, threshold and
// selective reads, deliberate sub-quorum denials), and belief churn
// (joins via group links, identity revocations, CRL publishes) applied
// through the server's Mutation API.
//
// The trick that makes the scale honest and cheap at once: principals
// are an indexed name space ("u0000042") bound to a small pool of real
// RSA key pairs, and certificates are materialized lazily — only the
// groups and signers the zipfian pool actually touches pay keygen, CA
// and AA (joint) signatures. The coalition is defined over the whole
// population.
package load

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"

	"jointadmin/internal/acl"
	"jointadmin/internal/authority"
	"jointadmin/internal/authz"
	"jointadmin/internal/clock"
	"jointadmin/internal/pki"
	"jointadmin/internal/sharedrsa"
)

// The coalition's fixed shape and request mix.
const (
	// groupSize is n of each object's m-of-n write group (its read group
	// is 1-of-n over the same members).
	groupSize = 3
	// writeQuorum is m: co-signers per joint write.
	writeQuorum = 2
	// userKeys is the pool of real RSA key pairs principals map onto.
	userKeys = 32
	// keyBits is the RSA modulus size for all keys.
	keyBits = 512
	// readFrac, selectiveFrac and denyFrac split the request mix; the
	// remainder is joint writes. Selective reads exercise the A35
	// single-subject certificate path. They are typed so their sums round
	// as float64 additions do (an untyped sum is exact, and would move the
	// cut points by an ulp).
	readFrac      float64 = 0.55
	selectiveFrac float64 = 0.10
	denyFrac      float64 = 0.05
)

// LoadProfile sizes the synthesized coalition and the request pool.
type LoadProfile struct {
	// Principals is the coalition's principal population. Group
	// memberships are drawn from the whole population; only principals
	// the pool selects are materialized.
	Principals int
	// Objects is the number of protected objects in the server's store.
	Objects int
	// PoolSize is how many distinct requests are pre-signed and then
	// replayed (freshness checking is off, so replay is valid).
	PoolSize int
	// ZipfS is the zipf skew (> 1) for object and principal selection.
	ZipfS float64
	// Seed makes the synthesized coalition and pool reproducible.
	Seed int64
}

// withDefaults fills unset fields with the smoke-scale defaults.
func (p LoadProfile) withDefaults() LoadProfile {
	if p.Principals == 0 {
		p.Principals = 100000
	}
	if p.Objects == 0 {
		p.Objects = 1000
	}
	if p.PoolSize == 0 {
		p.PoolSize = 256
	}
	if p.ZipfS == 0 {
		p.ZipfS = 1.2
	}
	return p
}

// PooledRequest is one pre-signed request variant of the replay pool.
type PooledRequest struct {
	Kind      string // write | read | selective | deny
	Object    string
	WantAllow bool
	Req       authz.AccessRequest
}

// LoadFixture is a synthesized coalition plus its replay pool and churn
// machinery, ready to drive a server.
type LoadFixture struct {
	profile LoadProfile
	Server  *authz.Server

	clk  *clock.Clock
	est  *authority.EstablishResult
	ra   *authority.RevocationAuthority
	cas  []*authority.DomainCA
	keys []*pki.KeyPair
	// keyIDs caches keys[i].KeyID() (sha256+hex per call otherwise).
	keyIDs []string
	// churnKeys back the churn principals. They MUST be disjoint from
	// keys: identity revocation revokes the key binding, and principals
	// share pool keys — revoking a pool key would revoke hot signers.
	churnKeys []*pki.KeyPair

	pool []PooledRequest

	// Lazy materialization caches (setup-time only).
	idCerts  map[int]pki.Signed[pki.Identity] // principal index → cert
	objcerts map[int]objCerts                 // object index → group certs

	validity clock.Interval
	churnSeq atomic.Int64
}

// objCerts is the certificate material of one materialized object.
type objCerts struct {
	write   pki.Signed[pki.ThresholdAttribute]
	read    pki.Signed[pki.ThresholdAttribute]
	members []int // principal indices, hot-first
}

// principalName renders the i-th principal of the population.
func principalName(i int) string { return fmt.Sprintf("u%07d", i) }

// objectName renders the i-th object.
func objectName(i int) string { return fmt.Sprintf("obj%06d", i) }

func writeGroup(i int) string { return fmt.Sprintf("Gw%06d", i) }
func readGroup(i int) string  { return fmt.Sprintf("Gr%06d", i) }

// keyOf maps a principal index onto the key pool.
func (f *LoadFixture) keyOf(i int) *pki.KeyPair { return f.keys[i%len(f.keys)] }

// caOf maps a principal index onto its domain CA.
func (f *LoadFixture) caOf(i int) *authority.DomainCA { return f.cas[i%len(f.cas)] }

// NewLoadFixture synthesizes the coalition and pre-signs the replay
// pool. Cost scales with the materialized subset (zipf-hot groups and
// signers), not with Principals.
func NewLoadFixture(p LoadProfile) (*LoadFixture, error) {
	p = p.withDefaults()
	clk := clock.New(100)
	domains := []string{"D1", "D2", "D3"}
	est, err := authority.EstablishWithDealer("AA", domains, keyBits, clk)
	if err != nil {
		return nil, fmt.Errorf("sim: establish AA: %w", err)
	}
	ra, err := authority.NewRA("RA", keyBits, clk)
	if err != nil {
		return nil, fmt.Errorf("sim: RA: %w", err)
	}
	f := &LoadFixture{
		profile:  p,
		clk:      clk,
		est:      est,
		ra:       ra,
		idCerts:  make(map[int]pki.Signed[pki.Identity]),
		objcerts: make(map[int]objCerts),
		validity: clock.NewInterval(50, clock.Time(1)<<40),
	}
	for i := 1; i <= 3; i++ {
		ca, err := authority.NewDomainCA(fmt.Sprintf("CA%d", i), keyBits, clk)
		if err != nil {
			return nil, fmt.Errorf("sim: CA%d: %w", i, err)
		}
		f.cas = append(f.cas, ca)
	}
	f.keys = make([]*pki.KeyPair, userKeys)
	f.keyIDs = make([]string, userKeys)
	for i := range f.keys {
		kp, err := pki.GenerateKeyPair(keyBits, nil)
		if err != nil {
			return nil, fmt.Errorf("sim: user key %d: %w", i, err)
		}
		f.keys[i] = kp
		f.keyIDs[i] = kp.KeyID()
	}
	f.churnKeys = make([]*pki.KeyPair, 4)
	for i := range f.churnKeys {
		kp, err := pki.GenerateKeyPair(keyBits, nil)
		if err != nil {
			return nil, fmt.Errorf("sim: churn key %d: %w", i, err)
		}
		f.churnKeys[i] = kp
	}

	// The server: trust anchors over the AA, CAs and RA; one ACL per
	// object naming its write and read groups. Freshness window 0 so
	// pre-signed requests replay.
	anchors := authz.TrustAnchors{
		AAName:  "AA",
		AAKey:   est.AA.Public(),
		Domains: domains,
		CAKeys:  make(map[string]sharedrsa.PublicKey, len(f.cas)),
		RAName:  "RA",
		RAKey:   ra.Public(),
	}
	for _, ca := range f.cas {
		anchors.CAKeys[ca.Name()] = ca.Public()
	}
	store := acl.NewStore(clk)
	for o := 0; o < p.Objects; o++ {
		objACL, err := acl.NewACL(
			acl.Entry{Group: writeGroup(o), Perms: []acl.Permission{acl.Write, acl.Modify}},
			acl.Entry{Group: readGroup(o), Perms: []acl.Permission{acl.Read}},
		)
		if err != nil {
			return nil, err
		}
		if err := store.Create(objectName(o), objACL, []byte("content-0"), writeGroup(o)); err != nil {
			return nil, err
		}
	}
	f.Server = authz.NewServer("P", clk, anchors, store, nil)

	if err := f.buildPool(); err != nil {
		return nil, err
	}
	return f, nil
}

// Pool exposes the pre-signed replay pool.
func (f *LoadFixture) Pool() []PooledRequest { return f.pool }

// identityOf lazily issues (and caches) the identity certificate of a
// principal, registering it with its domain CA on first use.
func (f *LoadFixture) identityOf(i int) (pki.Signed[pki.Identity], error) {
	if c, ok := f.idCerts[i]; ok {
		return c, nil
	}
	ca := f.caOf(i)
	name := principalName(i)
	ca.Register(name, f.keyOf(i).Public())
	c, err := ca.IssueIdentity(name, f.validity)
	if err != nil {
		return c, fmt.Errorf("sim: identity of %s: %w", name, err)
	}
	f.idCerts[i] = c
	return c, nil
}

// groupsOf lazily issues (and caches) the write and read group
// certificates of an object, drawing the member set zipf-hot from the
// whole population.
func (f *LoadFixture) groupsOf(o int, pick func() int) (objCerts, error) {
	if c, ok := f.objcerts[o]; ok {
		return c, nil
	}
	seen := make(map[int]bool, groupSize)
	members := make([]int, 0, groupSize)
	for len(members) < groupSize {
		i := pick()
		for seen[i] { // linear probe past zipf collisions
			i = (i + 1) % f.profile.Principals
		}
		seen[i] = true
		members = append(members, i)
	}
	subjects := make([]pki.BoundSubject, len(members))
	for j, i := range members {
		subjects[j] = pki.BoundSubject{Name: principalName(i), KeyID: f.keyIDs[i%len(f.keys)]}
	}
	wc, err := f.est.AA.IssueThreshold(writeGroup(o), writeQuorum, subjects, f.validity)
	if err != nil {
		return objCerts{}, fmt.Errorf("sim: write group of %s: %w", objectName(o), err)
	}
	rc, err := f.est.AA.IssueThreshold(readGroup(o), 1, subjects, f.validity)
	if err != nil {
		return objCerts{}, fmt.Errorf("sim: read group of %s: %w", objectName(o), err)
	}
	c := objCerts{write: wc, read: rc, members: members}
	f.objcerts[o] = c
	return c, nil
}

// buildPool pre-signs PoolSize request variants with zipf-hot objects
// and signers.
func (f *LoadFixture) buildPool() error {
	p := f.profile
	rng := rand.New(rand.NewSource(p.Seed))
	objZipf := rand.NewZipf(rng, p.ZipfS, 1, uint64(p.Objects-1))
	prinZipf := rand.NewZipf(rng, p.ZipfS, 1, uint64(p.Principals-1))
	pick := func() int { return int(prinZipf.Uint64()) }

	f.pool = make([]PooledRequest, 0, p.PoolSize)
	for n := 0; n < p.PoolSize; n++ {
		o := int(objZipf.Uint64())
		oc, err := f.groupsOf(o, pick)
		if err != nil {
			return err
		}
		kind := "write"
		switch x := rng.Float64(); {
		case x < readFrac:
			kind = "read"
		case x < readFrac+selectiveFrac:
			kind = "selective"
		case x < readFrac+selectiveFrac+denyFrac:
			kind = "deny"
		}
		pr, err := f.buildRequest(kind, o, oc, n)
		if err != nil {
			return err
		}
		f.pool = append(f.pool, pr)
	}
	return nil
}

// buildRequest assembles and signs one pooled request.
func (f *LoadFixture) buildRequest(kind string, o int, oc objCerts, seq int) (PooledRequest, error) {
	object := objectName(o)
	pr := PooledRequest{Kind: kind, Object: object, WantAllow: kind != "deny"}

	sign := func(signers []int, op acl.Permission, payload []byte) error {
		for _, i := range signers {
			idc, err := f.identityOf(i)
			if err != nil {
				return err
			}
			r, err := authz.SignRequest(principalName(i), f.clk.Now(), op, object, payload, f.keyOf(i))
			if err != nil {
				return err
			}
			pr.Req.Identities = append(pr.Req.Identities, idc)
			pr.Req.Requests = append(pr.Req.Requests, r)
		}
		return nil
	}

	switch kind {
	case "read":
		pr.Req.Threshold = oc.read
		if err := sign(oc.members[:1], acl.Read, nil); err != nil {
			return pr, err
		}
	case "selective":
		// The A35 single-subject path: an attribute certificate binding
		// one member into the read group.
		i := oc.members[len(oc.members)-1]
		sub := pki.BoundSubject{Name: principalName(i), KeyID: f.keyIDs[i%len(f.keys)]}
		cert, err := f.est.AA.IssueAttribute(readGroup(o), sub, f.validity)
		if err != nil {
			return pr, fmt.Errorf("sim: selective cert: %w", err)
		}
		pr.Req.SingleSubject = true
		pr.Req.Single = cert
		if err := sign([]int{i}, acl.Read, nil); err != nil {
			return pr, err
		}
	case "deny":
		// Sub-quorum joint write: denied at Step 3 (threshold not met).
		pr.Req.Threshold = oc.write
		if err := sign(oc.members[:1], acl.Write, []byte(fmt.Sprintf("v%d", seq))); err != nil {
			return pr, err
		}
	default: // write
		pr.Req.Threshold = oc.write
		if err := sign(oc.members[:writeQuorum], acl.Write, []byte(fmt.Sprintf("v%d", seq))); err != nil {
			return pr, err
		}
	}
	return pr, nil
}

// Churn applies one belief mutation through the server's Mutation API,
// cycling joins (group links), identity revocations of cold principals,
// and CRL publishes. Every mutation swaps the belief snapshot and with it
// the memoized residues (the verified-certificate cache survives: none of
// these re-anchors) — the cost the load harness is after. Returns the
// applied verb.
func (f *LoadFixture) Churn(ctx context.Context) (string, error) {
	seq := f.churnSeq.Add(1)
	switch seq % 3 {
	case 0:
		// A join: link a fresh subgroup into a materialized read group.
		var o int
		for idx := range f.objcerts {
			o = idx
			break
		}
		link, err := f.est.AA.IssueGroupLink(fmt.Sprintf("Gjoin%06d", seq), readGroup(o), f.validity)
		if err != nil {
			return authz.VerbGroupLink, err
		}
		return authz.VerbGroupLink, f.Server.Apply(ctx, authz.GroupLink{Cert: link})
	case 1:
		// Revoke the identity of a cold principal (never a signer), so
		// the belief state grows without flipping pooled outcomes.
		name := fmt.Sprintf("churn-u%d", seq)
		ca := f.cas[int(seq)%len(f.cas)]
		ca.Register(name, f.churnKeys[int(seq)%len(f.churnKeys)].Public())
		rev, err := ca.RevokeIdentity(name, f.clk.Now())
		if err != nil {
			return authz.VerbIdentityRevocation, err
		}
		return authz.VerbIdentityRevocation, f.Server.Apply(ctx, authz.IdentityRevocation{Cert: rev})
	default:
		// Revoke a throwaway group's certificate and publish the CRL.
		cert, err := f.est.AA.IssueThreshold(fmt.Sprintf("Gchurn%06d", seq), 1,
			[]pki.BoundSubject{{Name: principalName(0), KeyID: f.keyIDs[0]}}, f.validity)
		if err != nil {
			return authz.VerbCRL, err
		}
		if _, err := f.ra.Revoke(cert, f.clk.Now()); err != nil {
			return authz.VerbCRL, err
		}
		crl, err := f.ra.PublishCRL()
		if err != nil {
			return authz.VerbCRL, err
		}
		return authz.VerbCRL, f.Server.Apply(ctx, authz.CRL{List: crl})
	}
}
