// Package coalition implements the dynamic coalition lifecycle of
// Sections 1–2 and the coalition-dynamics cost model of Section 6: domains
// form an alliance, establish the joint coalition AA (shared key, no
// outside trusted party), enroll users, and issue threshold attribute
// certificates. The paper's Section 6 says joins and leaves "would
// require establishing a new, shared public-key and consequently would
// require large-scale revocation and re-distribution of certificates".
// That holds only for a change some domain does not cooperate in: when
// every domain holding a share is up, Join and Leave redistribute the
// AA's shares among the new membership under the unchanged key, and only
// the certificates that named a departing domain's users are revoked and
// re-issued (experiment E13). Otherwise they re-key as the paper says
// (experiment E7). Either runs in two phases: the shares or keys are
// prepared first, without the coalition's lock (PrepareJoin,
// PrepareLeave), and Commit then puts the change into effect. A domain
// is autonomous and its identity CA outlives its membership: a domain
// that rejoins re-admits the CA key it held. A domain never seen draws a
// new one, and so does one whose CA has revoked an identity or one of
// whose users a certificate has named: re-admitting those would make a
// server believe again what the leave cut off.
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
	// errUnknownDomain indicates an operation naming a non-member domain.
	errUnknownDomain = errors.New("coalition: unknown domain")
	// errDuplicateDomain indicates a join by an existing member.
	errDuplicateDomain = errors.New("coalition: domain already a member")
	// errLastDomains indicates a leave that would destroy the coalition.
	errLastDomains = errors.New("coalition: cannot shrink below two domains")
	// errUnknownUser indicates an unknown coalition user.
	errUnknownUser = errors.New("coalition: unknown user")
	// errRekeyCommitted indicates a second Commit of one prepared join or
	// leave.
	errRekeyCommitted = errors.New("coalition: rekey already committed")
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

// member is one autonomous domain: its identity CA, its enrolled users'
// keys and the identity certificate the CA holds for each of them.
type member struct {
	Name  string
	CA    *authority.DomainCA
	users map[string]*pki.KeyPair
	ids   map[string]pki.Signed[pki.Identity]
}

func newMember(name string, ca *authority.DomainCA) *member {
	return &member{Name: name, CA: ca, users: make(map[string]*pki.KeyPair),
		ids: make(map[string]pki.Signed[pki.Identity])}
}

// issue has the CA certify user's registered key over validity and holds
// the certificate for later requests; a failed issuance leaves none held.
func (m *member) issue(user string, validity clock.Interval) (pki.Signed[pki.Identity], error) {
	idc, err := m.CA.IssueIdentity(user, validity)
	if err != nil {
		delete(m.ids, user)
		return idc, err
	}
	m.ids[user] = idc
	return idc, nil
}

// certKey names a live attribute certificate: a group has at most one
// threshold and one selective (single-subject, axiom A35) certificate.
type certKey struct {
	group     string
	selective bool
}

// issued tracks a live attribute certificate the AA issued, so it can be
// revoked and re-issued across membership changes: an m-of-users
// threshold certificate, or a selective one for its one user.
type issued struct {
	certKey
	m         int
	users     []string
	validity  clock.Interval
	threshold pki.Signed[pki.ThresholdAttribute]
	single    pki.Signed[pki.Attribute]
	// displaced holds the live certificates earlier grants of the same
	// key issued and a re-grant superseded. A re-grant revokes nothing
	// (grants are monotone), so they stay live until the group's
	// revocation (RevokeGroup) or a membership change revokes them.
	displaced []*issued
	// revoked says RevokeGroup revoked the certificate: a re-grant
	// does not count it among the live ones it displaces.
	revoked bool
}

// name is how errors name the certificate.
func (r *issued) name() string {
	if r.selective {
		return "selective " + r.group
	}
	return r.group
}

// revoke has ra revoke the certificate effective at.
func (r *issued) revoke(ra *authority.RevocationAuthority, at clock.Time) (pki.Signed[pki.Revocation], error) {
	if r.selective {
		return ra.RevokeAttribute(r.single, at)
	}
	return ra.Revoke(r.threshold, at)
}

// track records rec as the live certificate of its key; the record it
// replaces, and whatever that one displaced, become rec's displaced
// certificates. Caller holds the lock.
func (c *Coalition) track(rec *issued) {
	if old, ok := c.certs[rec.certKey]; ok {
		rec.displaced = old.displaced
		if !old.revoked {
			rec.displaced = append(rec.displaced, old)
		}
		old.displaced = nil
	}
	c.certs[rec.certKey] = rec
}

// RevokeGroup has the revocation authority revoke, effective now, the
// group's threshold certificate, or its selective one when it has none,
// together with every live certificate of that kind a re-grant of the
// group displaced. It returns the revocations, the tracked certificate's
// first; none when the group has no certificate. The tracked certificate
// is revoked again by each call, as the revocation may be meant for
// other servers; a displaced one only by the first, and a server that
// missed it learns it from the CRL.
func (c *Coalition) RevokeGroup(group string) ([]pki.Signed[pki.Revocation], error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.certs[certKey{group, false}]
	if !ok {
		if rec, ok = c.certs[certKey{group, true}]; !ok {
			return nil, nil
		}
	}
	at := c.clk.Now()
	var revs []pki.Signed[pki.Revocation]
	for _, r := range append([]*issued{rec}, rec.displaced...) {
		rev, err := r.revoke(c.ra, at)
		if err != nil {
			return nil, fmt.Errorf("coalition: revoke %s: %w", r.name(), err)
		}
		revs = append(revs, rev)
	}
	rec.displaced, rec.revoked = nil, true
	return revs, nil
}

// reissue has aa issue the certificate again over subs, its users bound
// to their keys; a failed issuance keeps the certificate held.
func (r *issued) reissue(aa *authority.CoalitionAA, subs []pki.BoundSubject) error {
	if r.selective {
		cert, err := aa.IssueAttribute(r.group, subs[0], r.validity)
		if err == nil {
			r.single = cert
		}
		return err
	}
	cert, err := aa.IssueThreshold(r.group, r.m, subs, r.validity)
	if err == nil {
		r.threshold = cert
	}
	return err
}

// RekeyReport is the cost of one coalition-dynamics event (E7, E13).
type RekeyReport struct {
	// Redistributed says which path ran: true when the AA's shares were
	// redistributed under the unchanged key, false when it re-keyed.
	Redistributed  bool
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

	mu      sync.Mutex
	members []*member
	// cas is the CA of every domain the coalition has made one for, by
	// domain name, member or departed, that a rejoin may re-admit. A CA
	// that has revoked an identity is dropped (RevokeUserIdentity), and
	// so is one whose user a certificate has named (named).
	cas   map[string]*authority.DomainCA
	est   *authority.EstablishResult
	ra    *authority.RevocationAuthority
	epoch int
	certs map[certKey]*issued
}

// Form establishes a coalition among the named domains: one identity CA
// per domain, the joint coalition AA, and the revocation authority.
func Form(name string, domains []string, cfg Config, clk *clock.Clock) (*Coalition, error) {
	cfg = cfg.withDefaults()
	if len(domains) < 2 {
		return nil, fmt.Errorf("coalition: at least 2 domains required, got %d", len(domains))
	}
	c := &Coalition{
		name:  name,
		clk:   clk,
		cfg:   cfg,
		cas:   make(map[string]*authority.DomainCA, len(domains)),
		certs: make(map[certKey]*issued),
		epoch: 1,
	}
	for _, d := range domains {
		ca, err := c.domainCA(d)
		if err != nil {
			return nil, err
		}
		c.members = append(c.members, newMember(d, ca))
		c.cas[d] = ca
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

// domainCA makes domain's identity CA under a newly drawn key.
func (c *Coalition) domainCA(domain string) (*authority.DomainCA, error) {
	return authority.NewDomainCA("CA_"+domain, c.cfg.KeyBits, c.clk)
}

// establish generates the AA key shared among the named domains. It
// reads only what Form fixes, so it runs without the lock.
func (c *Coalition) establish(names []string) (*authority.EstablishResult, error) {
	if c.cfg.DistributedKeygen {
		return authority.Establish("AA_"+c.name, names, c.cfg.KeyBits, c.clk)
	}
	return authority.EstablishWithDealer("AA_"+c.name, names, c.cfg.KeyBits, c.clk)
}

// Epoch returns the membership epoch: it advances by one on every join
// and every leave, whether the change redistributed the AA's shares or
// re-keyed the AA.
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

func (c *Coalition) member(domain string) (*member, bool) {
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
		return pki.Signed[pki.Identity]{}, fmt.Errorf("%s: %w", domain, errUnknownDomain)
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
	return nil, fmt.Errorf("%s: %w", user, errUnknownUser)
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
	return pki.Signed[pki.Identity]{}, fmt.Errorf("%s: %w", user, errUnknownUser)
}

// RevokeUserIdentity asks the user's domain CA to revoke its key binding
// effective now, and drops the certificate the domain held for it: the
// user's next request carries a newly issued one. The CA is no longer
// kept for a rejoin: a server drops its revocation when the domain
// leaves (the CA is no longer anchored), so a rejoin under the same key
// would accept the revoked key again. The domain draws a new key if it
// rejoins.
func (c *Coalition) RevokeUserIdentity(user string) (pki.Signed[pki.IdentityRevocation], error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range c.members {
		if _, ok := m.users[user]; ok {
			delete(m.ids, user)
			rev, err := m.CA.RevokeIdentity(user, c.clk.Now())
			if err == nil {
				delete(c.cas, m.Name)
			}
			return rev, err
		}
	}
	return pki.Signed[pki.IdentityRevocation]{}, fmt.Errorf("%s: %w", user, errUnknownUser)
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
			return nil, fmt.Errorf("%s: %w", u, errUnknownUser)
		}
		out = append(out, pki.BoundSubject{Name: u, KeyID: kp.KeyID()})
	}
	return out, nil
}

// named drops from cas the CA of each domain that enrolls one of users,
// whom a certificate now names. The leave's revocations of that
// certificate, and of any it displaces, reach no server: a server cuts a
// departed user off only by no longer anchoring the user's CA, so that
// CA must not be re-admitted. Caller holds the lock.
func (c *Coalition) named(users []string) {
	for _, m := range c.members {
		if slices.ContainsFunc(users, func(u string) bool { _, ok := m.users[u]; return ok }) {
			delete(c.cas, m.Name)
		}
	}
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
	c.named(us)
	c.track(&issued{certKey: certKey{group, false}, m: m, users: us, validity: validity, threshold: cert})
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
	c.named([]string{user})
	c.track(&issued{certKey: certKey{group, true}, m: 1, users: []string{user}, validity: validity, single: cert})
	return cert, nil
}

// SelectiveCertificate returns the live single-subject certificate for a
// group.
func (c *Coalition) SelectiveCertificate(group string) (pki.Signed[pki.Attribute], bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.certs[certKey{group, true}]
	if !ok {
		return pki.Signed[pki.Attribute]{}, false
	}
	return rec.single, true
}

// Certificate returns the live certificate for a group.
func (c *Coalition) Certificate(group string) (pki.Signed[pki.ThresholdAttribute], bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.certs[certKey{group, false}]
	if !ok {
		return pki.Signed[pki.ThresholdAttribute]{}, false
	}
	return rec.threshold, true
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

// Rekey is a join or leave whose AA sharing is prepared but not yet in
// effect: PrepareJoin and PrepareLeave make it without holding the
// coalition's lock, and Commit puts it into effect once. An uncommitted
// Rekey changes nothing.
type Rekey struct {
	join   bool
	domain string
	// ca is the CA prepare made for a joining domain under a new key; nil
	// when the coalition kept the domain's CA, which Commit re-admits.
	ca *authority.DomainCA
	// names is the membership est's key is shared among: the membership
	// the change produces from the one prepare saw.
	names []string
	// from is the AA a redistribution dealt est's shares from; nil when
	// est is a new key.
	from *authority.CoalitionAA
	// est is the prepared AA; nil once committed, so no sharing is
	// installed twice.
	est *authority.EstablishResult
}

// Join admits a new domain. When every member is up, the members deal
// the newcomer a share of the unchanged AA key and nothing is re-issued;
// otherwise the AA re-keys among n+1 domains and every outstanding
// certificate is revoked and re-issued under the new key.
func (c *Coalition) Join(domain string) (RekeyReport, error) {
	r, err := c.PrepareJoin(domain)
	if err != nil {
		return RekeyReport{}, err
	}
	return c.Commit(r)
}

// Leave removes a member domain and its CA from the trust anchors; the
// coalition may keep the CA for a rejoin (Coalition.cas says when). Its
// users are dropped from every certificate's subject list (thresholds
// are clamped to the remaining subject count). When every member, the
// departing one included, is up, the departing domain deals its share to
// the members that stay, and only the certificates that named its users
// are revoked and re-issued; otherwise the AA re-keys and every
// certificate is.
func (c *Coalition) Leave(domain string) (RekeyReport, error) {
	r, err := c.PrepareLeave(domain)
	if err != nil {
		return RekeyReport{}, err
	}
	return c.Commit(r)
}

// PrepareJoin prepares what a join of domain needs — its CA and the AA
// sharing among the current members and domain (reshare) — holding the
// coalition's lock only to read the membership. A domain whose CA the
// coalition keeps (Coalition.cas) draws no key: Commit re-admits the CA.
// Any other draws a CA key, beside the sharing. A failure of either
// changes nothing.
func (c *Coalition) PrepareJoin(domain string) (*Rekey, error) { return c.prepare(true, domain) }

// PrepareLeave prepares the AA sharing among the members that stay when
// domain leaves (reshare), holding the coalition's lock only to read the
// membership.
func (c *Coalition) PrepareLeave(domain string) (*Rekey, error) { return c.prepare(false, domain) }

func (c *Coalition) prepare(join bool, domain string) (*Rekey, error) {
	c.mu.Lock()
	names, err := c.namesAfter(join, domain)
	aa, kept := c.est.AA, c.cas[domain] != nil
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}
	r := &Rekey{join: join, domain: domain, names: names}
	// A newcomer's CA key is drawn beside the AA sharing.
	var caErr error
	var wg sync.WaitGroup
	if join && !kept {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.ca, caErr = c.domainCA(domain)
		}()
	}
	est, redistributed, err := c.reshare(aa, names)
	if redistributed {
		r.from = aa
	}
	r.est = est
	wg.Wait()
	if caErr != nil {
		return nil, caErr
	}
	if err != nil {
		return nil, fmt.Errorf("coalition: rekey: %w", err)
	}
	return r, nil
}

// reshare prepares the AA among names: aa's shares redistributed under
// the unchanged key when every domain of aa can deal
// (CoalitionAA.Redistribute, whose trial joint signature under the
// unchanged key the new shares have passed), otherwise a new key
// (establish). redistributed says which.
func (c *Coalition) reshare(aa *authority.CoalitionAA, names []string) (est *authority.EstablishResult, redistributed bool, err error) {
	est, err = aa.Redistribute(names)
	if errors.Is(err, authority.ErrNotRedistributable) {
		est, err = c.establish(names)
		return est, false, err
	}
	return est, err == nil, err
}

// namesAfter checks a join or leave of domain against the current
// membership and returns the membership it produces. Caller holds the
// lock.
func (c *Coalition) namesAfter(join bool, domain string) ([]string, error) {
	_, member := c.member(domain)
	switch {
	case join && member:
		return nil, fmt.Errorf("%s: %w", domain, errDuplicateDomain)
	case !join && !member:
		return nil, fmt.Errorf("%s: %w", domain, errUnknownDomain)
	case !join && len(c.members) <= 2:
		return nil, errLastDomains
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
// change against the current membership, changes the membership,
// installs the prepared AA and revokes and re-issues what the change
// requires (install). Commit is the change's linearization point. When
// another change committed since r was prepared, r's sharing is of the
// wrong membership or dealt from shares no longer held, and Commit
// prepares one for the current membership under the lock instead. A
// join re-admits the domain's CA if the coalition keeps it now; else it
// takes the CA prepare made, or makes one under the lock when prepare
// saw a CA kept that no longer is. A failed preparation changes
// nothing. A Rekey commits once: a second Commit fails with
// errRekeyCommitted.
func (c *Coalition) Commit(r *Rekey) (RekeyReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.est == nil {
		return RekeyReport{}, errRekeyCommitted
	}
	names, err := c.namesAfter(r.join, r.domain)
	if err != nil {
		return RekeyReport{}, err
	}
	est, redistributed := r.est, r.from != nil
	if !slices.Equal(names, r.names) || redistributed && r.from != c.est.AA {
		if est, redistributed, err = c.reshare(c.est.AA, names); err != nil {
			return RekeyReport{}, fmt.Errorf("coalition: rekey: %w", err)
		}
	}
	var departed map[string]*pki.KeyPair
	if r.join {
		ca := r.ca
		if kept := c.cas[r.domain]; kept != nil {
			ca = kept.Readmit()
		} else if ca == nil {
			if ca, err = c.domainCA(r.domain); err != nil {
				return RekeyReport{}, err
			}
		}
		c.members = append(c.members, newMember(r.domain, ca))
		c.cas[r.domain] = ca
	} else {
		m, _ := c.member(r.domain)
		departed = m.users
		c.members = slices.DeleteFunc(c.members, func(mm *member) bool { return mm == m })
	}
	r.est, r.ca = nil, nil
	return c.install(est, redistributed, departed)
}

// install puts est, the AA shared among the current members, into
// effect and advances the epoch. departed holds the users of a domain
// that left (nil for a join): they are dropped from every certificate's
// subject list, clamping thresholds to the subjects kept. A new key (a
// re-key) is the mass revocation and re-distribution of Section 6:
// every outstanding certificate is revoked and re-issued under it. Under
// the unchanged key (redistributed) a certificate stays valid to its
// end, and only those that named a departed user are revoked and
// re-issued without them. A certificate left with no subject is revoked
// and dropped. A certificate a re-grant displaced is revoked in the
// same cases, and not re-issued. Caller holds the lock.
func (c *Coalition) install(est *authority.EstablishResult, redistributed bool, departed map[string]*pki.KeyPair) (RekeyReport, error) {
	report := RekeyReport{Redistributed: redistributed, Domains: len(c.members)}
	c.est = est
	if est.Keygen != nil {
		report.KeygenAttempts = est.Keygen.Attempts
	}
	c.epoch++
	report.Epoch = c.epoch
	gone := func(u string) bool { _, ok := departed[u]; return ok }

	for _, rec := range c.certs {
		kept := slices.DeleteFunc(slices.Clone(rec.users), gone)
		// A displaced certificate is revoked, never re-issued, where
		// its record would be revoked: at a re-key, or when it names a
		// departed user; and with a record that is dropped, so that
		// none is left live and untracked.
		var live []*issued
		for _, d := range rec.displaced {
			if redistributed && len(kept) > 0 && !slices.ContainsFunc(d.users, gone) {
				live = append(live, d)
				continue
			}
			if _, err := d.revoke(c.ra, c.clk.Now()); err != nil {
				return report, fmt.Errorf("coalition: revoke displaced %s: %w", d.name(), err)
			}
			report.CertsRevoked++
		}
		rec.displaced = live
		if redistributed && len(kept) == len(rec.users) {
			continue
		}
		if _, err := rec.revoke(c.ra, c.clk.Now()); err != nil {
			return report, fmt.Errorf("coalition: revoke %s: %w", rec.name(), err)
		}
		report.CertsRevoked++
		rec.users, rec.m = kept, min(rec.m, len(kept))
		if len(kept) == 0 {
			delete(c.certs, rec.certKey)
			continue
		}
		subs, err := c.subjectsFor(rec.users)
		if err != nil {
			return report, err
		}
		if err := rec.reissue(c.est.AA, subs); err != nil {
			return report, fmt.Errorf("coalition: re-issue %s: %w", rec.name(), err)
		}
		rec.revoked = false
		report.CertsReissued++
	}

	// Count identity certificates that relying servers must refresh
	// trust for (identity CAs persist, but servers re-anchor).
	for _, m := range c.members {
		report.IdentityCount += len(m.users)
	}
	return report, nil
}
