// Package coalition implements the dynamic coalition lifecycle of
// Sections 1–2 and the coalition-dynamics cost model of Section 6: domains
// form an alliance, establish the joint coalition AA (shared key, no
// outside trusted party), enroll users, and issue threshold attribute
// certificates. Joins and leaves "would require establishing a new, shared
// public-key and consequently would require large-scale revocation and
// re-distribution of certificates" — Join and Leave implement exactly
// that and report its cost (experiment E7), in two phases: the keys are
// generated first, without the coalition's lock (PrepareJoin,
// PrepareLeave), and Commit then puts the change into effect.
package coalition

import (
	"errors"
	"fmt"
	"slices"
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
	// ErrRekeyCommitted indicates a second Commit of one prepared join or
	// leave.
	ErrRekeyCommitted = errors.New("coalition: rekey already committed")
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
	est, err := c.establish(domains)
	if err != nil {
		return nil, err
	}
	c.est = est
	ra, err := authority.NewRA("RA_"+name, cfg.KeyBits, clk)
	if err != nil {
		return nil, err
	}
	c.ra = ra
	return c, nil
}

// establish generates the AA key shared among the named domains. It
// reads only what Form fixes, so it runs without the lock.
func (c *Coalition) establish(names []string) (*authority.EstablishResult, error) {
	if c.cfg.DistributedKeygen {
		return authority.Establish("AA_"+c.name, names, c.cfg.KeyBits, c.clk)
	}
	return authority.EstablishWithDealer("AA_"+c.name, names, c.cfg.KeyBits, c.clk)
}

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

// Rekey is a join or leave whose keys are generated but not yet in
// effect: PrepareJoin and PrepareLeave make it without holding the
// coalition's lock, and Commit puts it into effect once. An uncommitted
// Rekey changes nothing.
type Rekey struct {
	join   bool
	domain string
	ca     *authority.DomainCA // the joining domain's CA (join only)
	// names is the membership est's key is shared among: the membership
	// the change produces from the one prepare saw.
	names []string
	// est is the prepared AA key; nil once committed, so no key is
	// installed twice.
	est *authority.EstablishResult
}

// Join admits a new domain: the AA must be re-keyed (a new shared public
// key among n+1 domains) and every outstanding threshold certificate is
// revoked and re-issued under the new key.
func (c *Coalition) Join(domain string) (RekeyReport, error) {
	r, err := c.PrepareJoin(domain)
	if err != nil {
		return RekeyReport{}, err
	}
	return c.Commit(r)
}

// Leave removes a member domain. Its users are dropped from every
// certificate's subject list (thresholds are clamped to the remaining
// subject count); then the AA re-keys.
func (c *Coalition) Leave(domain string) (RekeyReport, error) {
	r, err := c.PrepareLeave(domain)
	if err != nil {
		return RekeyReport{}, err
	}
	return c.Commit(r)
}

// PrepareJoin generates the keys a join of domain needs — its CA key and
// the AA key shared among the current members and domain, the two drawn
// concurrently — holding the coalition's lock only to read the
// membership. A failure of either key changes nothing.
func (c *Coalition) PrepareJoin(domain string) (*Rekey, error) { return c.prepare(true, domain) }

// PrepareLeave generates the AA key shared among the members that stay
// when domain leaves, holding the coalition's lock only to read the
// membership.
func (c *Coalition) PrepareLeave(domain string) (*Rekey, error) { return c.prepare(false, domain) }

func (c *Coalition) prepare(join bool, domain string) (*Rekey, error) {
	c.mu.Lock()
	names, err := c.namesAfter(join, domain)
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	r := &Rekey{join: join, domain: domain, names: names}
	// A join's two keys are independent draws: the newcomer's CA key is
	// generated beside the AA key.
	var caErr error
	var wg sync.WaitGroup
	if join {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.ca, caErr = authority.NewDomainCA("CA_"+domain, c.cfg.KeyBits, c.clk)
		}()
	}
	r.est, err = c.establish(names)
	wg.Wait()
	if caErr != nil {
		return nil, caErr
	}
	if err != nil {
		return nil, fmt.Errorf("coalition: rekey: %w", err)
	}
	return r, nil
}

// namesAfter checks a join or leave of domain against the current
// membership and returns the membership it produces. Caller holds the
// lock.
func (c *Coalition) namesAfter(join bool, domain string) ([]string, error) {
	_, member := c.member(domain)
	switch {
	case join && member:
		return nil, fmt.Errorf("%s: %w", domain, ErrDuplicateDomain)
	case !join && !member:
		return nil, fmt.Errorf("%s: %w", domain, ErrUnknownDomain)
	case !join && len(c.members) <= 2:
		return nil, ErrLastDomains
	}
	var names []string
	for _, m := range c.members {
		if m.Name != domain {
			names = append(names, m.Name)
		}
	}
	if join {
		names = append(names, domain)
	}
	return names, nil
}

// Commit puts a prepared join or leave into effect: it re-checks the
// change against the current membership, changes the membership, revokes
// every outstanding certificate, installs the new AA key and re-issues
// the certificates under it (the mass revocation and re-distribution of
// Section 6). Commit is the change's linearization point. When another
// change committed since r was prepared, r's key is shared among the
// wrong membership, and Commit generates one for the current membership
// under the lock instead. A failed keygen changes nothing. A Rekey
// commits once: a second Commit fails with ErrRekeyCommitted.
func (c *Coalition) Commit(r *Rekey) (RekeyReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.est == nil {
		return RekeyReport{}, ErrRekeyCommitted
	}
	names, err := c.namesAfter(r.join, r.domain)
	if err != nil {
		return RekeyReport{}, err
	}
	est := r.est
	if !slices.Equal(names, r.names) {
		if est, err = c.establish(names); err != nil {
			return RekeyReport{}, fmt.Errorf("coalition: rekey: %w", err)
		}
	}
	if r.join {
		c.members = append(c.members, newMember(r.domain, r.ca))
	} else {
		c.leave(r.domain)
	}
	r.est, r.ca = nil, nil
	return c.rekey(est)
}

// leave drops domain from the membership and its users from every
// certificate's subject list, clamping thresholds to the subjects kept.
// Caller holds the lock.
func (c *Coalition) leave(domain string) {
	m, _ := c.member(domain)
	for _, rec := range c.certs {
		var kept []string
		for _, u := range rec.users {
			if _, departing := m.users[u]; !departing {
				kept = append(kept, u)
			}
		}
		rec.users = kept
		if rec.m > len(kept) {
			rec.m = len(kept)
		}
	}
	c.members = slices.DeleteFunc(c.members, func(mm *Member) bool { return mm == m })
}

// rekey installs est, the new shared key among the current members, and
// performs the mass revocation and re-distribution of Section 6. Caller
// holds the lock.
func (c *Coalition) rekey(est *authority.EstablishResult) (RekeyReport, error) {
	report := RekeyReport{Domains: len(c.members)}

	// 1. Revoke every outstanding certificate under the old authority.
	for _, rec := range c.certs {
		if _, err := c.ra.Revoke(rec.cert, c.clk.Now()); err != nil {
			return report, fmt.Errorf("coalition: revoke %s: %w", rec.group, err)
		}
		report.CertsRevoked++
	}

	// 2. Install the new shared key.
	c.est = est
	if est.Keygen != nil {
		report.KeygenAttempts = est.Keygen.Attempts
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
		if _, err := c.ra.RevokeAttribute(rec.cert, c.clk.Now()); err != nil {
			return report, fmt.Errorf("coalition: revoke selective %s: %w", g, err)
		}
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
