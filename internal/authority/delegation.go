package authority

import (
	"jointadmin/internal/clock"
	"jointadmin/internal/pki"
)

// This file extends the Case II coalition AA with the delegation
// subsystem's certificate kinds. Both go through the same consensus
// signer as attribute certificates: a delegation link or a group-graph
// link is coalition policy and therefore needs the member domains'
// joint signature (Requirement III), exactly like an A3x certificate.

// IssueDelegation issues a delegation-link certificate under the
// coalition's consensus rules. A root grant leaves Delegator empty; a
// chain link names the delegator whose authority the subject extends.
func (aa *CoalitionAA) IssueDelegation(delegator string, subject pki.BoundSubject, group string, depth int, perms string, validity clock.Interval) (pki.Signed[pki.Delegation], error) {
	body := pki.Delegation{
		Issuer:    aa.name,
		IssuedAt:  aa.clk.Now(),
		Delegator: delegator,
		Subject:   subject,
		Group:     group,
		Depth:     depth,
		Perms:     perms,
		NotBefore: validity.Begin,
		NotAfter:  validity.End,
	}
	return pki.Issue(body, aa.signer())
}

// IssueGroupGraphLink issues a group-graph membership certificate
// (Sub is a member of Sup, with a traversal budget) under the same
// consensus rules.
func (aa *CoalitionAA) IssueGroupGraphLink(sub, sup string, depth int, validity clock.Interval) (pki.Signed[pki.GroupGraphLink], error) {
	body := pki.GroupGraphLink{
		Issuer:    aa.name,
		IssuedAt:  aa.clk.Now(),
		Sub:       sub,
		Sup:       sup,
		Depth:     depth,
		NotBefore: validity.Begin,
		NotAfter:  validity.End,
	}
	return pki.Issue(body, aa.signer())
}

// RevokeSubject issues a revocation certificate withdrawing one bound
// subject's standing in a group. Delegation chains treat every named
// link as load-bearing, so revoking a mid-chain subject severs all
// chains routed through it (M = 0 marks the non-threshold form).
func (ra *RevocationAuthority) RevokeSubject(group string, sub pki.BoundSubject, effective clock.Time) (pki.Signed[pki.Revocation], error) {
	body := pki.Revocation{
		Issuer:      ra.name,
		IssuedAt:    ra.clk.Now(),
		Group:       group,
		M:           0,
		Subjects:    []pki.BoundSubject{sub},
		EffectiveAt: effective,
	}
	rev, err := pki.Issue(body, ra.key.AsSigner())
	if err != nil {
		return rev, err
	}
	ra.registry.Add(rev)
	return rev, nil
}
