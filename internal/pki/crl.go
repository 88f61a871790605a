package pki

import (
	"sort"
	"sync"

	"jointadmin/internal/clock"
)

// CRL is a certificate revocation list: the batch distribution channel for
// revocation certificates. Relying servers poll the RA (or receive pushed
// CRLs) and feed each entry into their belief stores — the paper's "verify
// the most recent available revocation information before granting
// access".
type CRL struct {
	Issuer   string               `json:"issuer"`
	IssuedAt clock.Time           `json:"issuedAt"`
	Seq      int                  `json:"seq"`
	Entries  []Signed[Revocation] `json:"entries"`
}

func (CRL) wellFormed() error { return nil }

func (CRL) validity() (clock.Interval, bool) { return clock.Interval{}, false }

// RevocationRegistry accumulates revocation certificates at an authority
// and publishes monotonically numbered CRLs.
type RevocationRegistry struct {
	issuer string
	signer Signer

	mu      sync.Mutex
	entries []Signed[Revocation]
	seq     int
}

// NewRevocationRegistry creates a registry publishing under the signer.
func NewRevocationRegistry(issuer string, signer Signer) *RevocationRegistry {
	return &RevocationRegistry{issuer: issuer, signer: signer}
}

// Add records a revocation certificate for the next CRL.
func (r *RevocationRegistry) Add(rev Signed[Revocation]) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries = append(r.entries, rev)
}

// Publish signs and returns the current CRL, bumping the sequence number.
func (r *RevocationRegistry) Publish(at clock.Time) (Signed[CRL], error) {
	r.mu.Lock()
	entries := make([]Signed[Revocation], len(r.entries))
	copy(entries, r.entries)
	r.seq++
	seq := r.seq
	r.mu.Unlock()
	// Deterministic order for a reproducible signed form.
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Cert.Group != entries[j].Cert.Group {
			return entries[i].Cert.Group < entries[j].Cert.Group
		}
		return entries[i].Cert.EffectiveAt < entries[j].Cert.EffectiveAt
	})
	// Signed, so entries cannot be dropped or injected in transit
	// without detection.
	return Issue(CRL{Issuer: r.issuer, IssuedAt: at, Seq: seq, Entries: entries}, r.signer)
}
