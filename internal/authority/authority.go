// Package authority implements the authorities of Figure 1: per-domain
// identity CAs, the joint coalition Attribute Authority (AA) in both of
// the paper's designs — Case I (conventional key in a lock box) and Case
// II (shared key with distributed private key shares) — and the revocation
// authority RA.
//
// Requirement III (consensus) is enforced structurally in Case II: issuing
// a threshold attribute certificate *is* running the joint signature
// protocol, and each domain's partial signature is produced only after its
// local approval hook consents. A domain that is down or refuses blocks
// issuance (n-of-n), or merely reduces the quorum (m-of-n, Section 3.3).
package authority

import (
	"errors"
	"fmt"
	"sync"

	"jointadmin/internal/clock"
	"jointadmin/internal/pki"
	"jointadmin/internal/sharedrsa"
)

// Sentinel errors.
var (
	// errConsentWithheld indicates a domain refused to co-sign.
	errConsentWithheld = errors.New("authority: domain withheld consent")
	// errDomainDown indicates a domain is unavailable for co-signing.
	errDomainDown = errors.New("authority: domain down")
	// errUnknownUser indicates an identity request for an unregistered user.
	errUnknownUser = errors.New("authority: unknown user")
	// ErrNotRedistributable indicates a membership change the AA's shares
	// cannot be redistributed for: a domain holding a share is down, or
	// the AA issues m-of-n. The caller re-keys instead.
	ErrNotRedistributable = errors.New("authority: shares cannot be redistributed")
)

// DomainCA is one autonomous domain's identity certificate authority:
// "each autonomous domain will typically have its own identity certificate
// authority for distributing and revoking identity certificates to users
// registered in that domain" (Requirement I discussion).
type DomainCA struct {
	name string
	key  *pki.KeyPair
	clk  *clock.Clock

	mu    sync.Mutex
	users map[string]sharedrsa.PublicKey
}

// NewDomainCA creates a CA with a fresh conventional key pair.
func NewDomainCA(name string, bits int, clk *clock.Clock) (*DomainCA, error) {
	kp, err := pki.GenerateKeyPair(bits, nil)
	if err != nil {
		return nil, fmt.Errorf("authority: CA %s keygen: %w", name, err)
	}
	return &DomainCA{name: name, key: kp, clk: clk, users: make(map[string]sharedrsa.PublicKey)}, nil
}

// Name returns the CA's name.
func (ca *DomainCA) Name() string { return ca.name }

// Public returns the CA's verification key.
func (ca *DomainCA) Public() sharedrsa.PublicKey { return ca.key.Public() }

// Register enrolls a user with its public key (the domain's registration
// policy is out of scope; enrollment is the precondition for issuance).
func (ca *DomainCA) Register(user string, pk sharedrsa.PublicKey) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	ca.users[user] = pk
}

// IssueIdentity issues an identity certificate for a registered user.
func (ca *DomainCA) IssueIdentity(user string, validity clock.Interval) (pki.Signed[pki.Identity], error) {
	ca.mu.Lock()
	upk, ok := ca.users[user]
	ca.mu.Unlock()
	if !ok {
		return pki.Signed[pki.Identity]{}, fmt.Errorf("%s at %s: %w", user, ca.name, errUnknownUser)
	}
	body := pki.Identity{
		Issuer:     ca.name,
		IssuedAt:   ca.clk.Now(),
		Subject:    user,
		SubjectKey: pki.NewKeyInfo(upk),
		KeyID:      upk.KeyID(),
		NotBefore:  validity.Begin,
		NotAfter:   validity.End,
	}
	return pki.Issue(body, ca.key.AsSigner())
}

// RevokeIdentity issues an identity revocation certificate withdrawing a
// registered user's key binding, effective at the given time.
func (ca *DomainCA) RevokeIdentity(user string, effective clock.Time) (pki.Signed[pki.IdentityRevocation], error) {
	ca.mu.Lock()
	upk, ok := ca.users[user]
	ca.mu.Unlock()
	if !ok {
		return pki.Signed[pki.IdentityRevocation]{}, fmt.Errorf("%s at %s: %w", user, ca.name, errUnknownUser)
	}
	body := pki.IdentityRevocation{
		Issuer:      ca.name,
		IssuedAt:    ca.clk.Now(),
		Subject:     user,
		KeyID:       upk.KeyID(),
		EffectiveAt: effective,
	}
	return pki.Issue(body, ca.key.AsSigner())
}

// domainAgent is one member domain's participation in the coalition AA:
// it holds the domain's private key share and consults the domain's
// approval policy before co-signing anything.
type domainAgent struct {
	Name string
	// share and approve are fixed at construction; mu guards down.
	share   sharedrsa.Share
	approve func(payload []byte) error

	mu   sync.Mutex
	down bool
}

// newDomainAgent wraps a domain's share. approve is shown exactly the
// bytes the coalition is about to sign, a statement's signed form, and
// may be nil (approve all).
func newDomainAgent(name string, share sharedrsa.Share, approve func([]byte) error) *domainAgent {
	return &domainAgent{Name: name, share: share.Clone(), approve: approve}
}

// SetDown injects or clears a failure (experiment E3).
func (d *domainAgent) SetDown(down bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.down = down
}

// Down reports the failure state.
func (d *domainAgent) Down() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.down
}

// Consents reports whether the domain is up and its policy approves the
// payload, without computing a signature.
func (d *domainAgent) Consents(payload []byte) error {
	if d.Down() {
		return fmt.Errorf("%s: %w", d.Name, errDomainDown)
	}
	if d.approve != nil {
		if err := d.approve(payload); err != nil {
			return fmt.Errorf("%s: %w: %v", d.Name, errConsentWithheld, err)
		}
	}
	return nil
}

// Share exposes the domain's share for experiments that model stolen or
// redistributed shares; a deployment would keep it sealed inside the
// domain.
func (d *domainAgent) Share() sharedrsa.Share { return d.share.Clone() }

// consensusSigner is a pki.Signer that implements Case II issuance, the
// cryptographic embodiment of Requirement III: each domain co-signs only
// the bytes it consented to, which are the bytes signed. Without a
// threshold sharing every domain must co-sign (n-of-n): each domain's
// Consents is asked in domain order, on the caller's goroutine, and only
// once all have consented do their partials run, concurrently, through
// sharedrsa.SignJointly; a refusal stops the signature before any
// exponentiation. With a threshold sharing the quorum is the first m
// domains that are up and consent (m-of-n).
type consensusSigner struct {
	pk      sharedrsa.PublicKey
	domains []*domainAgent
	ts      *sharedrsa.ThresholdShares // nil: n-of-n
	m       int
}

var _ pki.Signer = (*consensusSigner)(nil)

func (c *consensusSigner) Public() sharedrsa.PublicKey { return c.pk }

func (c *consensusSigner) Sign(msg []byte) (sharedrsa.Signature, error) {
	if c.ts == nil {
		shares := make([]sharedrsa.Share, len(c.domains))
		for i, d := range c.domains {
			if err := d.Consents(msg); err != nil {
				return sharedrsa.Signature{}, err
			}
			shares[i] = d.share
		}
		return sharedrsa.SignJointly(msg, c.pk, shares)
	}
	var quorum []int
	for i, d := range c.domains {
		// A down or refusing domain does not join the quorum.
		if d.Consents(msg) != nil {
			continue
		}
		if quorum = append(quorum, i+1); len(quorum) == c.m {
			return c.ts.QuorumSign(msg, quorum)
		}
	}
	return sharedrsa.Signature{}, fmt.Errorf("authority: %d domains available, need %d: %w",
		len(quorum), c.m, sharedrsa.ErrQuorum)
}

// CoalitionAA is the joint coalition attribute authority (Case II): its
// public key is shared, its private key exists only as the member
// domains' shares.
type CoalitionAA struct {
	name    string
	pk      sharedrsa.PublicKey
	domains []*domainAgent
	clk     *clock.Clock

	mu        sync.Mutex
	threshold *sharedrsa.ThresholdShares // non-nil after EnableThreshold
	quorumM   int
}

// EstablishResult bundles the outcome of coalition AA establishment.
type EstablishResult struct {
	AA      *CoalitionAA
	Domains []*domainAgent
	// Keygen carries the distributed keygen diagnostics (attempt counts,
	// transcript) for experiments.
	Keygen *sharedrsa.Result
}

// Establish runs the distributed shared-key generation among the named
// domains and returns the coalition AA. No trusted dealer is involved
// (Requirement II).
func Establish(name string, domainNames []string, bits int, clk *clock.Clock) (*EstablishResult, error) {
	res, err := sharedrsa.GenerateShared(sharedrsa.Config{Parties: len(domainNames), Bits: bits})
	if err != nil {
		return nil, fmt.Errorf("authority: establish %s: %w", name, err)
	}
	return assemble(name, domainNames, res.Public, res.Shares, clk, res)
}

// EstablishWithDealer builds the AA from a trusted-dealer split — the fast
// path for tests and the Case II arm of benchmarks that are not measuring
// keygen itself. The paper's trust argument does not hold for this path;
// it exists for experimentation only.
func EstablishWithDealer(name string, domainNames []string, bits int, clk *clock.Clock) (*EstablishResult, error) {
	res, err := sharedrsa.DealerSplit(bits, len(domainNames), nil)
	if err != nil {
		return nil, fmt.Errorf("authority: establish %s (dealer): %w", name, err)
	}
	return assemble(name, domainNames, res.Public, res.Shares, clk, nil)
}

func assemble(name string, domainNames []string, pk sharedrsa.PublicKey, shares []sharedrsa.Share, clk *clock.Clock, kg *sharedrsa.Result) (*EstablishResult, error) {
	if len(domainNames) != len(shares) {
		return nil, fmt.Errorf("authority: %d domains but %d shares", len(domainNames), len(shares))
	}
	domains := make([]*domainAgent, len(domainNames))
	for i, dn := range domainNames {
		domains[i] = newDomainAgent(dn, shares[i], nil)
	}
	aa := &CoalitionAA{name: name, pk: pk, domains: domains, clk: clk}
	return &EstablishResult{AA: aa, Domains: domains, Keygen: kg}, nil
}

// Name returns the AA's name.
func (aa *CoalitionAA) Name() string { return aa.name }

// Public returns the shared public key KAA.
func (aa *CoalitionAA) Public() sharedrsa.PublicKey { return aa.pk }

// Domains returns the member domain agents.
func (aa *CoalitionAA) Domains() []*domainAgent {
	out := make([]*domainAgent, len(aa.domains))
	copy(out, aa.domains)
	return out
}

// EnableThreshold reshapes the n-of-n sharing into m-of-n (Section 3.3),
// trading strict consensus for availability: afterwards issuance succeeds
// whenever at least m domains are up and consenting.
func (aa *CoalitionAA) EnableThreshold(m int) error {
	shares := make([]sharedrsa.Share, len(aa.domains))
	for i, d := range aa.domains {
		shares[i] = d.Share()
	}
	ts, err := sharedrsa.Reshare(aa.pk, shares, m, nil)
	if err != nil {
		return fmt.Errorf("authority: enable threshold: %w", err)
	}
	aa.mu.Lock()
	defer aa.mu.Unlock()
	aa.threshold = ts
	aa.quorumM = m
	return nil
}

// Redistribute deals the AA's private key among the named domains
// without changing the key (sharedrsa.Redistribute): the domains of aa
// that names omits leave, each dealing its share to the domains that
// stay, and the names that hold no share join, after the domains that
// stay, in the order named. Every domain of aa deals, so every one must
// be up; an m-of-n AA (EnableThreshold) is not redistributed either,
// since its threshold shares would outlive the change. Both refusals
// are ErrNotRedistributable, and the caller re-keys. The result is a new
// n-of-n AA under aa's name and key, whose staying domains keep their
// approval hooks; aa itself is unchanged.
func (aa *CoalitionAA) Redistribute(names []string) (*EstablishResult, error) {
	aa.mu.Lock()
	threshold := aa.threshold != nil
	aa.mu.Unlock()
	if threshold {
		return nil, fmt.Errorf("%w: m-of-n sharing", ErrNotRedistributable)
	}
	named := make(map[string]bool, len(names))
	for _, n := range names {
		named[n] = true
	}
	held := make(map[string]bool, len(aa.domains))
	shares := make([]sharedrsa.Share, len(aa.domains))
	leaving := make([]bool, len(aa.domains))
	var stay []*domainAgent
	for i, d := range aa.domains {
		if d.Down() {
			return nil, fmt.Errorf("%w: %s: %w", ErrNotRedistributable, d.Name, errDomainDown)
		}
		held[d.Name] = true
		shares[i], leaving[i] = d.share, !named[d.Name]
		if named[d.Name] {
			stay = append(stay, d)
		}
	}
	var joining []string
	for _, n := range names {
		if !held[n] {
			joining = append(joining, n)
		}
	}
	dealt, err := sharedrsa.Redistribute(aa.pk, shares, leaving, len(joining), nil)
	if err != nil {
		return nil, fmt.Errorf("authority: redistribute %s: %w", aa.name, err)
	}
	domains := make([]*domainAgent, len(dealt))
	for i, sh := range dealt {
		if i < len(stay) {
			domains[i] = newDomainAgent(stay[i].Name, sh, stay[i].approve)
		} else {
			domains[i] = newDomainAgent(joining[i-len(stay)], sh, nil)
		}
	}
	return &EstablishResult{AA: &CoalitionAA{name: aa.name, pk: aa.pk, domains: domains, clk: aa.clk}, Domains: domains}, nil
}

// signer is the issuance path in force: strict n-of-n consensus, or an
// m-of-n quorum once EnableThreshold has run.
func (aa *CoalitionAA) signer() pki.Signer {
	aa.mu.Lock()
	defer aa.mu.Unlock()
	return &consensusSigner{pk: aa.pk, domains: aa.domains, ts: aa.threshold, m: aa.quorumM}
}

// IssueThreshold issues a threshold attribute certificate for a group,
// jointly signed under the coalition key.
func (aa *CoalitionAA) IssueThreshold(group string, m int, subjects []pki.BoundSubject, validity clock.Interval) (pki.Signed[pki.ThresholdAttribute], error) {
	body := pki.ThresholdAttribute{
		Issuer:    aa.name,
		IssuedAt:  aa.clk.Now(),
		Group:     group,
		M:         m,
		Subjects:  subjects,
		NotBefore: validity.Begin,
		NotAfter:  validity.End,
	}
	return pki.Issue(body, aa.signer())
}

// IssueAttribute issues a single-subject attribute certificate under the
// same consensus rules.
func (aa *CoalitionAA) IssueAttribute(group string, subject pki.BoundSubject, validity clock.Interval) (pki.Signed[pki.Attribute], error) {
	body := pki.Attribute{
		Issuer:    aa.name,
		IssuedAt:  aa.clk.Now(),
		Group:     group,
		Subject:   subject,
		NotBefore: validity.Begin,
		NotAfter:  validity.End,
	}
	return pki.Issue(body, aa.signer())
}

// IssueGroupLink issues a privilege-inheritance certificate under the same
// consensus rules: members of sub inherit sup's privileges.
func (aa *CoalitionAA) IssueGroupLink(sub, sup string, validity clock.Interval) (pki.Signed[pki.GroupLink], error) {
	body := pki.GroupLink{
		Issuer:    aa.name,
		IssuedAt:  aa.clk.Now(),
		Sub:       sub,
		Sup:       sup,
		NotBefore: validity.Begin,
		NotAfter:  validity.End,
	}
	return pki.Issue(body, aa.signer())
}

// RevokeThreshold issues a revocation certificate for a previously issued
// threshold attribute certificate, under the same consensus rules.
func (aa *CoalitionAA) RevokeThreshold(cert pki.Signed[pki.ThresholdAttribute], effective clock.Time) (pki.Signed[pki.Revocation], error) {
	body := pki.Revocation{
		Issuer:      aa.name,
		IssuedAt:    aa.clk.Now(),
		Group:       cert.Cert.Group,
		M:           cert.Cert.M,
		Subjects:    cert.Cert.Subjects,
		EffectiveAt: effective,
	}
	return pki.Issue(body, aa.signer())
}
