// Package jointadmin is the public API of the reproduction of Khurana,
// Gligor and Linn, "Reasoning about Joint Administration of Access
// Policies for Coalition Resources" (ICDCS 2002).
//
// It wires the substrates together into the deployment of Figure 1:
//
//   - an Alliance of autonomous domains, each with its own identity CA,
//   - a joint coalition Attribute Authority whose RSA private key exists
//     only as distributed shares held by the member domains (Case II of
//     Section 2.2; Boneh–Franklin generation, joint signatures),
//   - threshold attribute certificates granting m-of-n groups of users
//     access to jointly owned objects, and
//   - coalition servers that decide joint access requests by running the
//     authorization protocol of Section 4.3 as a derivation in the
//     paper's access-control logic, with full proof traces in the audit
//     log.
//
// Quickstart:
//
//	a, err := jointadmin.NewAlliance("genetics", []string{"D1", "D2", "D3"})
//	a.EnrollUser("D1", "alice")
//	a.EnrollUser("D2", "bob")
//	a.EnrollUser("D3", "carol")
//	a.GrantThreshold("G_write", 2, "alice", "bob", "carol")
//	srv, err := a.NewServer("P")
//	srv.CreateObject("O", map[string][]string{"G_write": {"write"}}, []byte("v1"))
//	dec, err := a.Submit(ctx, srv, jointadmin.RequestSpec{
//		Group: "G_write", Op: "write", Object: "O",
//		Payload: []byte("v2"), Signers: []string{"alice", "bob"},
//	})
package jointadmin

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"jointadmin/internal/acl"
	"jointadmin/internal/audit"
	"jointadmin/internal/authz"
	"jointadmin/internal/clock"
	"jointadmin/internal/coalition"
	"jointadmin/internal/logic"
	"jointadmin/internal/pki"
)

// Sentinel errors re-exported for callers.
var (
	// ErrDenied is returned when the authorization protocol denies access.
	ErrDenied = authz.ErrDenied
	// ErrNoGroup indicates a request against a group with no certificate.
	ErrNoGroup = errors.New("jointadmin: no certificate issued for group")
)

// Option configures an Alliance.
type Option func(*options)

type options struct {
	keyBits     int
	distributed bool
	freshness   int64
	start       clock.Time
	validity    int64
}

func defaults() options {
	return options{keyBits: 512, freshness: 0, start: 100, validity: 1_000_000}
}

// WithKeyBits sets the RSA modulus size (default 512; use ≥ 1024 for
// anything but experiments).
func WithKeyBits(bits int) Option { return func(o *options) { o.keyBits = bits } }

// WithDistributedKeygen selects the real Boneh–Franklin distributed key
// generation for the coalition AA (slower; the default uses a dealer fast
// path that keeps every other protocol identical).
func WithDistributedKeygen() Option { return func(o *options) { o.distributed = true } }

// WithFreshnessWindow bounds |server time − request timestamp|.
func WithFreshnessWindow(ticks int64) Option { return func(o *options) { o.freshness = ticks } }

// WithStartTime sets the alliance clock's initial value.
func WithStartTime(t clock.Time) Option { return func(o *options) { o.start = t } }

// WithCertValidity sets how long issued certificates remain valid.
func WithCertValidity(ticks int64) Option { return func(o *options) { o.validity = ticks } }

// Alliance is a formed coalition with its authorities and users.
type Alliance struct {
	c    *coalition.Coalition
	clk  *clock.Clock
	opts options

	mu sync.Mutex
	// delegations remembers the leaf delegation-link certificate per
	// (delegate, group), so delegated requests and revocations can name it.
	delegations map[string]pki.Signed[pki.Delegation]
}

func delegationKey(subject, group string) string { return subject + "\x00" + group }

// NewAlliance forms a coalition among the named domains.
func NewAlliance(name string, domains []string, opts ...Option) (*Alliance, error) {
	o := defaults()
	for _, f := range opts {
		f(&o)
	}
	clk := clock.New(o.start)
	c, err := coalition.Form(name, domains, coalition.Config{
		KeyBits:           o.keyBits,
		DistributedKeygen: o.distributed,
	}, clk)
	if err != nil {
		return nil, fmt.Errorf("jointadmin: form alliance: %w", err)
	}
	return &Alliance{c: c, clk: clk, opts: o, delegations: make(map[string]pki.Signed[pki.Delegation])}, nil
}

// Clock returns the alliance's simulated clock.
func (a *Alliance) Clock() *clock.Clock { return a.clk }

// Coalition exposes the underlying coalition for advanced use (dynamics,
// certificates, raw authorities).
func (a *Alliance) Coalition() *coalition.Coalition { return a.c }

// Domains returns the member domains.
func (a *Alliance) Domains() []string { return a.c.Domains() }

func (a *Alliance) validity() clock.Interval {
	now := a.clk.Now()
	return clock.NewInterval(now-1, now.Add(a.opts.validity))
}

// EnrollUser registers a user in a domain and issues its identity
// certificate.
func (a *Alliance) EnrollUser(domain, user string) error {
	_, err := a.c.AddUser(domain, user, a.validity())
	if err != nil {
		return fmt.Errorf("jointadmin: enroll %s: %w", user, err)
	}
	return nil
}

// GrantThreshold issues a threshold attribute certificate: m of the named
// users must co-sign to exercise the group's privileges. All member
// domains jointly sign the certificate (Requirement III).
func (a *Alliance) GrantThreshold(group string, m int, users ...string) error {
	_, err := a.c.IssueThreshold(group, m, users, a.validity())
	if err != nil {
		return fmt.Errorf("jointadmin: grant %s: %w", group, err)
	}
	return nil
}

// GrantSelective issues a single-subject attribute certificate: the named
// user, signing with exactly its bound key, speaks for the group (the
// selective distribution of privileges, axiom A35).
func (a *Alliance) GrantSelective(group, user string) error {
	_, err := a.c.IssueSelective(group, user, a.validity())
	if err != nil {
		return fmt.Errorf("jointadmin: grant selective %s: %w", group, err)
	}
	return nil
}

// Revoke asks the revocation authority to revoke the group's certificate
// (threshold or selective) effective now and delivers the revocation to
// the given servers.
func (a *Alliance) Revoke(group string, servers ...*Server) error {
	var (
		rev pki.Signed[pki.Revocation]
		err error
	)
	if cert, ok := a.c.Certificate(group); ok {
		rev, err = a.c.RA().Revoke(cert, a.clk.Now())
	} else if single, ok := a.c.SelectiveCertificate(group); ok {
		rev, err = a.c.RA().RevokeAttribute(single, a.clk.Now())
	} else {
		return fmt.Errorf("%w: %s", ErrNoGroup, group)
	}
	if err != nil {
		return fmt.Errorf("jointadmin: revoke %s: %w", group, err)
	}
	return deliver("revocation", authz.Revocation{Cert: rev}, servers)
}

// deliver applies m to each server in turn, stopping at the first that
// refuses it; what names m in the error.
func deliver(what string, m authz.Mutation, servers []*Server) error {
	for _, s := range servers {
		if err := s.inner.Apply(context.Background(), m); err != nil {
			return fmt.Errorf("jointadmin: deliver %s to %s: %w", what, s.name, err)
		}
	}
	return nil
}

// PublishCRL has the revocation authority publish its current certificate
// revocation list and delivers it to the given servers. Each server
// applies every listed entry it does not yet believe revoked as its own
// membership revocation — one journaled record and one published snapshot
// per entry — so a CRL replays, on recovery or on a follower, as the
// revocations it delivered.
func (a *Alliance) PublishCRL(servers ...*Server) error {
	crl, err := a.c.RA().PublishCRL()
	if err != nil {
		return fmt.Errorf("jointadmin: publish CRL: %w", err)
	}
	return deliver("CRL", authz.CRL{List: crl}, servers)
}

// LinkGroups issues a privilege-inheritance certificate (members of sub
// inherit sup's privileges) under full domain consensus and delivers it to
// the given servers.
func (a *Alliance) LinkGroups(sub, sup string, servers ...*Server) error {
	cert, err := a.c.AA().IssueGroupLink(sub, sup, a.validity())
	if err != nil {
		return fmt.Errorf("jointadmin: link %s ⇒ %s: %w", sub, sup, err)
	}
	return deliver("group link", authz.GroupLink{Cert: cert}, servers)
}

// Delegate issues a bounded-depth delegation-link certificate under full
// domain consensus and delivers it to the given servers: subject may
// exercise group's privileges restricted to perms, and may itself
// delegate depth further hops. An empty delegator makes a root grant; a
// named delegator extends that user's existing chain (the servers refuse
// the link if no such chain is believed). The leaf certificate is
// remembered so delegated requests and revocations can reference it.
func (a *Alliance) Delegate(delegator, subject, group string, depth int, perms []string, servers ...*Server) error {
	kp, err := a.c.UserKey(subject)
	if err != nil {
		return fmt.Errorf("jointadmin: delegate to %s: %w", subject, err)
	}
	bound := pki.BoundSubject{Name: subject, KeyID: kp.Public().KeyID()}
	cert, err := a.c.AA().IssueDelegation(delegator, bound, group, depth, logic.CanonicalPerms(perms), a.validity())
	if err != nil {
		return fmt.Errorf("jointadmin: delegate %s ⇒ %s in %s: %w", delegator, subject, group, err)
	}
	if err := deliver("delegation", authz.Delegation{Cert: cert}, servers); err != nil {
		return err
	}
	a.mu.Lock()
	a.delegations[delegationKey(subject, group)] = cert
	a.mu.Unlock()
	return nil
}

// LinkGroupGraph issues a group-graph membership certificate (Sub is a
// member of Sup, crossable while the traversal budget allows depth more
// bounded hops) under full domain consensus and delivers it to the given
// servers.
func (a *Alliance) LinkGroupGraph(sub, sup string, depth int, servers ...*Server) error {
	cert, err := a.c.AA().IssueGroupGraphLink(sub, sup, depth, a.validity())
	if err != nil {
		return fmt.Errorf("jointadmin: graph link %s ⇒ %s: %w", sub, sup, err)
	}
	return deliver("graph link", authz.GroupGraphLink{Cert: cert}, servers)
}

// RevokeDelegation asks the revocation authority to withdraw the named
// delegate's standing in the group and delivers the revocation to the
// given servers. Every chain routed through the delegate is severed.
func (a *Alliance) RevokeDelegation(delegate, group string, servers ...*Server) error {
	a.mu.Lock()
	cert, ok := a.delegations[delegationKey(delegate, group)]
	a.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: no delegation to %s in %s", ErrNoGroup, delegate, group)
	}
	rev, err := a.c.RA().RevokeSubject(group, cert.Cert.Subject, a.clk.Now())
	if err != nil {
		return fmt.Errorf("jointadmin: revoke delegation of %s: %w", delegate, err)
	}
	return deliver("revocation", authz.Revocation{Cert: rev}, servers)
}

// RevokeIdentity withdraws a user's key binding at its domain CA and
// delivers the identity revocation to the given servers: the user's signed
// requests are denied from now on, even under still-valid attribute
// certificates.
func (a *Alliance) RevokeIdentity(user string, servers ...*Server) error {
	rev, err := a.c.RevokeUserIdentity(user)
	if err != nil {
		return fmt.Errorf("jointadmin: revoke identity of %s: %w", user, err)
	}
	return deliver("identity revocation", authz.IdentityRevocation{Cert: rev}, servers)
}

// Join admits a new domain. When every member is up, the members deal it
// a share of the unchanged AA key and nothing is re-issued; otherwise the
// AA re-keys and every certificate is re-issued. The report says which.
func (a *Alliance) Join(domain string) (coalition.RekeyReport, error) {
	return a.c.Join(domain)
}

// Leave removes a domain and its CA. When every member, the departing
// one included, is up, the departing domain deals its share to the
// members that stay, and only the certificates that named its users are
// re-issued, without them; otherwise the AA re-keys and every
// certificate is re-issued. The report says which.
func (a *Alliance) Leave(domain string) (coalition.RekeyReport, error) {
	return a.c.Leave(domain)
}

// PrepareJoin prepares a join of domain — its CA key, and the AA's shares
// dealt among the members and domain (or a new AA key when a member is
// down) — without putting it into effect: requests keep being decided
// under the current epoch until Commit.
func (a *Alliance) PrepareJoin(domain string) (*coalition.Rekey, error) {
	return a.c.PrepareJoin(domain)
}

// PrepareLeave prepares the AA among the members that stay when domain
// leaves — its shares redistributed, or a new key when a member is down
// — without putting the leave into effect.
func (a *Alliance) PrepareLeave(domain string) (*coalition.Rekey, error) {
	return a.c.PrepareLeave(domain)
}

// Commit puts a prepared join or leave into effect: the membership
// changes, and the certificates the change requires are revoked and
// re-issued — those that named a departed user after a redistribution,
// every one after a re-key. Servers re-anchor afterwards (Reanchor).
// PrepareJoin then Commit is Join.
func (a *Alliance) Commit(r *coalition.Rekey) (coalition.RekeyReport, error) {
	return a.c.Commit(r)
}

// Server is a coalition application server with its object store and
// audit log.
type Server struct {
	name  string
	inner *authz.Server
	store *acl.Store
	log   *audit.Log
}

// NewServer creates a coalition server anchored at the alliance's current
// membership epoch. After Join/Leave, create a new server (or re-anchor):
// the anchors name the members' CAs and the AA's key.
func (a *Alliance) NewServer(name string) (*Server, error) {
	store := acl.NewStore(a.clk)
	log := audit.NewLog()
	inner := authz.NewServer(name, a.clk, a.c.Anchors(a.opts.freshness), store, log)
	return &Server{name: name, inner: inner, store: store, log: log}, nil
}

// Audit returns the server's audit log.
func (s *Server) Audit() *audit.Log { return s.log }

// Authz exposes the underlying protocol server.
func (s *Server) Authz() *authz.Server { return s.inner }

// CreateObject installs a jointly owned object with its ACL, given as
// group → permission names.
func (s *Server) CreateObject(name string, aclSpec map[string][]string, content []byte) error {
	var entries []acl.Entry
	for g, perms := range aclSpec {
		ps := make([]acl.Permission, len(perms))
		for i, p := range perms {
			ps[i] = acl.Permission(p)
		}
		entries = append(entries, acl.Entry{Group: g, Perms: ps})
	}
	built, err := acl.NewACL(entries...)
	if err != nil {
		return fmt.Errorf("jointadmin: create %s: %w", name, err)
	}
	if err := s.store.Create(name, built, content, "G_policy"); err != nil {
		return fmt.Errorf("jointadmin: create %s: %w", name, err)
	}
	return nil
}

// Decision re-exports the authorization decision.
type Decision = authz.Decision

// AccessRequest re-exports the wire form of a joint access request.
type AccessRequest = authz.AccessRequest

// RequestSpec describes a joint access request to build and submit: which
// group exercises which permission on which object, co-signed by which
// users.
type RequestSpec struct {
	// Group names the group whose privileges the request exercises.
	Group string
	// Op is the permission ("read", "write", "modify").
	Op string
	// Object names the target object on the server.
	Object string
	// Payload carries write content or a new ACL (for "modify").
	Payload []byte
	// Signers are the co-signing users. A threshold group needs at least
	// its quorum m; a selective group needs exactly one.
	Signers []string
	// Selective forces the single-subject certificate path (axiom A35).
	// When false, Submit resolves the group's threshold certificate first
	// and falls back to a selective certificate for single-signer specs.
	Selective bool
	// Delegated routes the request through the lone signer's delegation
	// chain (registered by Delegate) instead of a group certificate.
	Delegated bool
}

// NewRequest builds the signed wire-form access request for a spec:
// certificates resolved from the coalition — each signer's identity
// certificate as its domain holds it (Coalition.IdentityOf) — and one
// signed request component per signer, timestamped now. The result can
// be submitted directly with Server.Request or shipped over a transport.
func (a *Alliance) NewRequest(spec RequestSpec) (AccessRequest, error) {
	var req AccessRequest
	if spec.Delegated {
		if len(spec.Signers) != 1 {
			return AccessRequest{}, fmt.Errorf("jointadmin: delegated request for %s needs exactly one signer, got %d",
				spec.Group, len(spec.Signers))
		}
		a.mu.Lock()
		cert, ok := a.delegations[delegationKey(spec.Signers[0], spec.Group)]
		a.mu.Unlock()
		if !ok {
			return AccessRequest{}, fmt.Errorf("%w: no delegation to %s in %s", ErrNoGroup, spec.Signers[0], spec.Group)
		}
		req.Delegated = true
		req.Delegation = cert
		return a.attachSigners(req, spec)
	}
	selective := spec.Selective
	if !selective {
		if _, ok := a.c.Certificate(spec.Group); !ok {
			// Fall back to the selective certificate for a lone signer.
			if _, sok := a.c.SelectiveCertificate(spec.Group); sok && len(spec.Signers) == 1 {
				selective = true
			} else {
				return AccessRequest{}, fmt.Errorf("%w: %s", ErrNoGroup, spec.Group)
			}
		}
	}
	if selective {
		cert, ok := a.c.SelectiveCertificate(spec.Group)
		if !ok {
			return AccessRequest{}, fmt.Errorf("%w: %s", ErrNoGroup, spec.Group)
		}
		if len(spec.Signers) != 1 {
			return AccessRequest{}, fmt.Errorf("jointadmin: selective request for %s needs exactly one signer, got %d",
				spec.Group, len(spec.Signers))
		}
		req.SingleSubject = true
		req.Single = cert
	} else {
		cert, _ := a.c.Certificate(spec.Group)
		req.Threshold = cert
	}
	return a.attachSigners(req, spec)
}

// attachSigners appends one identity certificate and one signed request
// component per signer. The identity certificate is the one the signer's
// domain holds, so the CA signs nothing on most requests; the request's
// freshness is the signed component's timestamp, now.
func (a *Alliance) attachSigners(req AccessRequest, spec RequestSpec) (AccessRequest, error) {
	for _, u := range spec.Signers {
		idc, err := a.c.IdentityOf(u, a.validity())
		if err != nil {
			return AccessRequest{}, fmt.Errorf("jointadmin: identity of %s: %w", u, err)
		}
		kp, err := a.c.UserKey(u)
		if err != nil {
			return AccessRequest{}, fmt.Errorf("jointadmin: key of %s: %w", u, err)
		}
		r, err := authz.SignRequest(u, a.clk.Now(), acl.Permission(spec.Op), spec.Object, spec.Payload, kp)
		if err != nil {
			return AccessRequest{}, err
		}
		req.Identities = append(req.Identities, idc)
		req.Requests = append(req.Requests, r)
	}
	return req, nil
}

// Submit builds the request for a spec and has the server decide it. The
// context cancels the server-side evaluation between protocol steps and
// between signature verifications.
func (a *Alliance) Submit(ctx context.Context, s *Server, spec RequestSpec) (Decision, error) {
	req, err := a.NewRequest(spec)
	if err != nil {
		return Decision{}, err
	}
	return s.inner.Authorize(ctx, req)
}

// Request is the lower-level entry point taking a pre-built access
// request (for callers that transport requests over the wire).
func (s *Server) Request(ctx context.Context, req AccessRequest) (Decision, error) {
	return s.inner.Authorize(ctx, req)
}

// Reanchor re-anchors the server at the alliance's current membership
// epoch, re-installing trust anchors after a Join or Leave. The server
// starts an empty certificate cache and rebuilds its beliefs from the new
// anchors, carrying every belief whose certificate they still verify:
// after a redistribution every grant and revocation stays, but for the
// delegations to users of a domain that left; after a re-key what the
// old AA key signed drops. When the server journals its
// state, the new anchors and what they carry are durably recorded in one
// record before the epoch switches; the error reports a journal failure
// (the old epoch stays published).
func (a *Alliance) Reanchor(s *Server) error {
	return s.inner.Apply(context.Background(), authz.Reanchor{Anchors: a.c.Anchors(a.opts.freshness), Departed: a.departed()})
}

// departed lists the delegates no member domain still enrolls under the
// key their delegation binds: users of a domain that left. A
// re-anchoring carries no delegation to them, so no chain runs through a
// departed user even while the AA key stays.
func (a *Alliance) departed() []pki.BoundSubject {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []pki.BoundSubject
	for _, cert := range a.delegations {
		sub := cert.Cert.Subject
		if kp, err := a.c.UserKey(sub.Name); err != nil || kp.Public().KeyID() != sub.KeyID {
			out = append(out, sub)
		}
	}
	return out
}

// BoundSubjectsOf lists the subjects bound into the group's certificate —
// useful for display.
func (a *Alliance) BoundSubjectsOf(group string) ([]pki.BoundSubject, error) {
	cert, ok := a.c.Certificate(group)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoGroup, group)
	}
	subs := make([]pki.BoundSubject, len(cert.Cert.Subjects))
	copy(subs, cert.Cert.Subjects)
	return subs, nil
}
