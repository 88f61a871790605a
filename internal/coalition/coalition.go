// Package coalition implements the dynamic coalition lifecycle of
// Sections 1–2 and the coalition-dynamics cost model of Section 6: domains
// form an alliance, establish the joint coalition AA (shared key, no
// outside trusted party), enroll users, and issue threshold attribute
// certificates. Joins and leaves "would require establishing a new, shared
// public-key and consequently would require large-scale revocation and
// re-distribution of certificates" — Rekey implements exactly that and
// reports its cost (experiment E7).
package coalition

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"jointadmin/internal/authority"
	"jointadmin/internal/authz"
	"jointadmin/internal/clock"
	"jointadmin/internal/pki"
	"jointadmin/internal/sharedrsa"
)

// Sentinel errors.
var (
	// ErrUnknownDomain indicates an operation naming a non-member domain.
	ErrUnknownDomain = errors.New("coalition: unknown domain")
	// ErrDuplicateDomain indicates a join by an existing member.
	ErrDuplicateDomain = errors.New("coalition: domain already a member")
	// ErrLastDomains indicates a leave that would destroy the coalition.
	ErrLastDomains = errors.New("coalition: cannot shrink below two domains")
	// ErrUnknownUser indicates an unknown coalition user.
	ErrUnknownUser = errors.New("coalition: unknown user")
)

// Config sizes the coalition's cryptography.
type Config struct {
	// KeyBits is the size of the AA's shared modulus and all conventional
	// keys. 0 selects 512.
	KeyBits int
	// DistributedKeygen selects the real Boneh–Franklin protocol for AA
	// establishment and re-keying; false uses the dealer fast path (for
	// tests and benchmarks not measuring keygen).
	DistributedKeygen bool
}

func (c Config) withDefaults() Config {
	if c.KeyBits == 0 {
		c.KeyBits = 512
	}
	return c
}

// Member is one autonomous domain: its identity CA, its enrolled users'
// keys and the identity certificate the CA holds for each of them.
type Member struct {
	Name  string
	CA    *authority.DomainCA
	users map[string]*pki.KeyPair
	ids   map[string]pki.Signed[pki.Identity]
}

func newMember(name string, ca *authority.DomainCA) *Member {
	return &Member{Name: name, CA: ca, users: make(map[string]*pki.KeyPair),
		ids: make(map[string]pki.Signed[pki.Identity])}
}

// issue has the CA certify user's registered key over validity and holds
// the certificate for later requests; a failed issuance leaves none held.
func (m *Member) issue(user string, validity clock.Interval) (pki.Signed[pki.Identity], error) {
	idc, err := m.CA.IssueIdentity(user, validity)
	if err != nil {
		delete(m.ids, user)
		return idc, err
	}
	m.ids[user] = idc
	return idc, nil
}

// certRecord tracks a live threshold certificate so it can be revoked and
// re-issued across re-keying events.
type certRecord struct {
	group    string
	m        int
	users    []string
	validity clock.Interval
	cert     pki.Signed[pki.ThresholdAttribute]
}

// RekeyReport is the cost of one coalition-dynamics event (E7).
type RekeyReport struct {
	Epoch          int
	Domains        int
	CertsRevoked   int
	CertsReissued  int
	IdentityCount  int
	KeygenAttempts int
}

// Coalition is a live alliance.
type Coalition struct {
	name string
	clk  *clock.Clock
	cfg  Config

	mu        sync.Mutex
	members   []*Member
	est       *authority.EstablishResult
	ra        *authority.RevocationAuthority
	epoch     int
	certs     map[string]*certRecord      // by group
	selective map[string]*selectiveRecord // by group
	revoked   []pki.Signed[pki.Revocation]
}

// selectiveRecord tracks a live single-subject attribute certificate
// (the A35 selective-distribution form).
type selectiveRecord struct {
	group    string
	user     string
	validity clock.Interval
	cert     pki.Signed[pki.Attribute]
}

// Form establishes a coalition among the named domains: one identity CA
// per domain, the joint coalition AA, and the revocation authority.
func Form(name string, domains []string, cfg Config, clk *clock.Clock) (*Coalition, error) {
	cfg = cfg.withDefaults()
	if len(domains) < 2 {
		return nil, fmt.Errorf("coalition: at least 2 domains required, got %d", len(domains))
	}
	c := &Coalition{
		name:      name,
		clk:       clk,
		cfg:       cfg,
		certs:     make(map[string]*certRecord),
		selective: make(map[string]*selectiveRecord),
		epoch:     1,
	}
	for _, d := range domains {
		ca, err := authority.NewDomainCA("CA_"+d, cfg.KeyBits, clk)
		if err != nil {
			return nil, err
		}
		c.members = append(c.members, newMember(d, ca))
	}
	if err := c.establishAA(); err != nil {
		return nil, err
	}
	ra, err := authority.NewRA("RA_"+name, cfg.KeyBits, clk)
	if err != nil {
		return nil, err
	}
	c.ra = ra
	return c, nil
}

func (c *Coalition) establishAA() error {
	names := make([]string, len(c.members))
	for i, m := range c.members {
		names[i] = m.Name
	}
	var (
		est *authority.EstablishResult
		err error
	)
	if c.cfg.DistributedKeygen {
		est, err = authority.Establish("AA_"+c.name, names, c.cfg.KeyBits, c.clk)
	} else {
		est, err = authority.EstablishWithDealer("AA_"+c.name, names, c.cfg.KeyBits, c.clk)
	}
	if err != nil {
		return err
	}
	c.est = est
	return nil
}

// Name returns the coalition name.
func (c *Coalition) Name() string { return c.name }

// Epoch returns the key epoch (increments on every re-key).
func (c *Coalition) Epoch() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// AA returns the current coalition attribute authority.
func (c *Coalition) AA() *authority.CoalitionAA {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.est.AA
}

// RA returns the revocation authority.
func (c *Coalition) RA() *authority.RevocationAuthority { return c.ra }

// Domains returns the member domain names, in join order.
func (c *Coalition) Domains() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.members))
	for i, m := range c.members {
		out[i] = m.Name
	}
	return out
}

func (c *Coalition) member(domain string) (*Member, bool) {
	for _, m := range c.members {
		if m.Name == domain {
			return m, true
		}
	}
	return nil, false
}

// AddUser enrolls a user in a member domain and issues its identity
// certificate, which the domain holds for the user's requests
// (IdentityOf). Enrolling a user again generates a new key and replaces
// the held certificate with one naming it.
func (c *Coalition) AddUser(domain, user string, validity clock.Interval) (pki.Signed[pki.Identity], error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.member(domain)
	if !ok {
		return pki.Signed[pki.Identity]{}, fmt.Errorf("%s: %w", domain, ErrUnknownDomain)
	}
	kp, err := pki.GenerateKeyPair(c.cfg.KeyBits, nil)
	if err != nil {
		return pki.Signed[pki.Identity]{}, err
	}
	m.users[user] = kp
	m.CA.Register(user, kp.Public())
	return m.issue(user, validity)
}

// UserKey returns a user's key pair (the user-side secret; exposed for
// request signing in examples and tests).
func (c *Coalition) UserKey(user string) (*pki.KeyPair, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.members {
		if kp, ok := m.users[user]; ok {
			return kp, nil
		}
	}
	return nil, fmt.Errorf("%s: %w", user, ErrUnknownUser)
}

// IdentityOf returns the identity certificate the user's domain holds
// for an enrolled user. A request's freshness is its signed, time-stamped
// component's, not the certificate's, so one certificate serves every
// request while it lasts: the CA signs a new one over validity, and the
// domain holds that instead, only when the held one is not yet valid now
// or less than half of validity's span remains on it (or none is held —
// after RevokeUserIdentity). A caller thus gets at least half the span
// it asks for.
func (c *Coalition) IdentityOf(user string, validity clock.Interval) (pki.Signed[pki.Identity], error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.members {
		if _, ok := m.users[user]; ok {
			now, span := c.clk.Now(), validity.End-validity.Begin
			if idc, held := m.ids[user]; held && idc.Cert.NotBefore <= now &&
				idc.Cert.NotAfter-now >= span-span/2 {
				return idc, nil
			}
			return m.issue(user, validity)
		}
	}
	return pki.Signed[pki.Identity]{}, fmt.Errorf("%s: %w", user, ErrUnknownUser)
}

// RevokeUserIdentity asks the user's domain CA to revoke its key binding
// effective now, and drops the certificate the domain held for it: the
// user's next request carries a newly issued one.
func (c *Coalition) RevokeUserIdentity(user string) (pki.Signed[pki.IdentityRevocation], error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.members {
		if _, ok := m.users[user]; ok {
			delete(m.ids, user)
			return m.CA.RevokeIdentity(user, c.clk.Now())
		}
	}
	return pki.Signed[pki.IdentityRevocation]{}, fmt.Errorf("%s: %w", user, ErrUnknownUser)
}

// subjectsFor resolves user names to bound subjects.
func (c *Coalition) subjectsFor(users []string) ([]pki.BoundSubject, error) {
	out := make([]pki.BoundSubject, 0, len(users))
	for _, u := range users {
		var kp *pki.KeyPair
		for _, m := range c.members {
			if k, ok := m.users[u]; ok {
				kp = k
				break
			}
		}
		if kp == nil {
			return nil, fmt.Errorf("%s: %w", u, ErrUnknownUser)
		}
		out = append(out, pki.BoundSubject{Name: u, KeyID: kp.KeyID()})
	}
	return out, nil
}

// IssueThreshold issues (and tracks) a threshold attribute certificate for
// a group over the named users.
func (c *Coalition) IssueThreshold(group string, m int, users []string, validity clock.Interval) (pki.Signed[pki.ThresholdAttribute], error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	subs, err := c.subjectsFor(users)
	if err != nil {
		return pki.Signed[pki.ThresholdAttribute]{}, err
	}
	cert, err := c.est.AA.IssueThreshold(group, m, subs, validity)
	if err != nil {
		return pki.Signed[pki.ThresholdAttribute]{}, err
	}
	us := make([]string, len(users))
	copy(us, users)
	c.certs[group] = &certRecord{group: group, m: m, users: us, validity: validity, cert: cert}
	return cert, nil
}

// IssueSelective issues (and tracks) a single-subject attribute
// certificate binding one user's key to the group (selective distribution,
// axiom A35).
func (c *Coalition) IssueSelective(group, user string, validity clock.Interval) (pki.Signed[pki.Attribute], error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	subs, err := c.subjectsFor([]string{user})
	if err != nil {
		return pki.Signed[pki.Attribute]{}, err
	}
	cert, err := c.est.AA.IssueAttribute(group, subs[0], validity)
	if err != nil {
		return pki.Signed[pki.Attribute]{}, err
	}
	c.selective[group] = &selectiveRecord{group: group, user: user, validity: validity, cert: cert}
	return cert, nil
}

// SelectiveCertificate returns the live single-subject certificate for a
// group.
func (c *Coalition) SelectiveCertificate(group string) (pki.Signed[pki.Attribute], bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.selective[group]
	if !ok {
		return pki.Signed[pki.Attribute]{}, false
	}
	return rec.cert, true
}

// Certificate returns the live certificate for a group.
func (c *Coalition) Certificate(group string) (pki.Signed[pki.ThresholdAttribute], bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.certs[group]
	if !ok {
		return pki.Signed[pki.ThresholdAttribute]{}, false
	}
	return rec.cert, true
}

// Anchors builds the trust configuration for a coalition server at the
// current epoch.
func (c *Coalition) Anchors(freshness int64) authz.TrustAnchors {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := authz.TrustAnchors{
		AAName:          c.est.AA.Name(),
		AAKey:           c.est.AA.Public(),
		RAName:          c.ra.Name(),
		RAKey:           c.ra.Public(),
		CAKeys:          make(map[string]sharedrsa.PublicKey, len(c.members)),
		FreshnessWindow: freshness,
	}
	for _, m := range c.members {
		a.Domains = append(a.Domains, m.Name)
		a.CAKeys[m.CA.Name()] = m.CA.Public()
	}
	sort.Strings(a.Domains)
	return a
}

// Join admits a new domain: the AA must be re-keyed (a new shared public
// key among n+1 domains) and every outstanding threshold certificate is
// revoked and re-issued under the new key.
func (c *Coalition) Join(domain string) (RekeyReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.member(domain); ok {
		return RekeyReport{}, fmt.Errorf("%s: %w", domain, ErrDuplicateDomain)
	}
	ca, err := authority.NewDomainCA("CA_"+domain, c.cfg.KeyBits, c.clk)
	if err != nil {
		return RekeyReport{}, err
	}
	c.members = append(c.members, newMember(domain, ca))
	return c.rekey()
}

// Leave removes a member domain. Its users are dropped from every
// certificate's subject list (thresholds are clamped to the remaining
// subject count); then the AA re-keys.
func (c *Coalition) Leave(domain string) (RekeyReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.member(domain)
	if !ok {
		return RekeyReport{}, fmt.Errorf("%s: %w", domain, ErrUnknownDomain)
	}
	if len(c.members) <= 2 {
		return RekeyReport{}, ErrLastDomains
	}
	departing := make(map[string]bool, len(m.users))
	for u := range m.users {
		departing[u] = true
	}
	for _, rec := range c.certs {
		var kept []string
		for _, u := range rec.users {
			if !departing[u] {
				kept = append(kept, u)
			}
		}
		rec.users = kept
		if rec.m > len(kept) {
			rec.m = len(kept)
		}
	}
	out := c.members[:0]
	for _, mm := range c.members {
		if mm.Name != domain {
			out = append(out, mm)
		}
	}
	c.members = out
	return c.rekey()
}

// rekey establishes a new shared key and performs the mass revocation and
// re-distribution of Section 6. Caller holds the lock.
func (c *Coalition) rekey() (RekeyReport, error) {
	report := RekeyReport{Domains: len(c.members)}

	// 1. Revoke every outstanding certificate under the old authority.
	for _, rec := range c.certs {
		rev, err := c.ra.Revoke(rec.cert, c.clk.Now())
		if err != nil {
			return report, fmt.Errorf("coalition: revoke %s: %w", rec.group, err)
		}
		c.revoked = append(c.revoked, rev)
		report.CertsRevoked++
	}

	// 2. Establish the new shared key among the current members.
	if err := c.establishAA(); err != nil {
		return report, fmt.Errorf("coalition: rekey: %w", err)
	}
	if c.est.Keygen != nil {
		report.KeygenAttempts = c.est.Keygen.Attempts
	}
	c.epoch++
	report.Epoch = c.epoch

	// 3. Re-issue every certificate under the new key (dropping groups
	// whose subject lists emptied).
	for g, rec := range c.certs {
		if len(rec.users) == 0 {
			delete(c.certs, g)
			continue
		}
		subs, err := c.subjectsFor(rec.users)
		if err != nil {
			return report, err
		}
		cert, err := c.est.AA.IssueThreshold(rec.group, rec.m, subs, rec.validity)
		if err != nil {
			return report, fmt.Errorf("coalition: re-issue %s: %w", rec.group, err)
		}
		rec.cert = cert
		report.CertsReissued++
	}

	// 4. Revoke and re-issue the selective (single-subject) certificates
	// the same way.
	for g, rec := range c.selective {
		rev, err := c.ra.RevokeAttribute(rec.cert, c.clk.Now())
		if err != nil {
			return report, fmt.Errorf("coalition: revoke selective %s: %w", g, err)
		}
		c.revoked = append(c.revoked, rev)
		report.CertsRevoked++
		stillMember := false
		for _, m := range c.members {
			if _, ok := m.users[rec.user]; ok {
				stillMember = true
				break
			}
		}
		if !stillMember {
			delete(c.selective, g)
			continue
		}
		subs, err := c.subjectsFor([]string{rec.user})
		if err != nil {
			return report, err
		}
		cert, err := c.est.AA.IssueAttribute(rec.group, subs[0], rec.validity)
		if err != nil {
			return report, fmt.Errorf("coalition: re-issue selective %s: %w", g, err)
		}
		rec.cert = cert
		report.CertsReissued++
	}

	// 5. Count identity certificates that relying servers must refresh
	// trust for (identity CAs persist, but servers re-anchor).
	for _, m := range c.members {
		report.IdentityCount += len(m.users)
	}
	return report, nil
}

// Revocations returns all revocation certificates issued by dynamics
// events (servers consume these to update their belief stores).
func (c *Coalition) Revocations() []pki.Signed[pki.Revocation] {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]pki.Signed[pki.Revocation], len(c.revoked))
	copy(out, c.revoked)
	return out
}
