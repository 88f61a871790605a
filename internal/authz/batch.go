// Batched certificate verification for Step 1.
//
// On a warm certificate cache Step 1 costs no RSA at all, but a request
// seen for the first time in a key epoch (first touch, after a re-key, or
// after eviction) verifies its k co-signer identity certificates. Grouped
// by issuing CA those k verifications share one public key, which is
// exactly the shape the k-way screening check in internal/sharedrsa
// exploits — see the package comment there for the soundness argument and
// for what the blinded strict mode adds. Nothing in this module turns it
// on: SetBatchVerify survives because the frozen benchmark module calls
// it, and goes with that call.

package authz

import (
	"errors"

	"jointadmin/internal/clock"
	"jointadmin/internal/pki"
	"jointadmin/internal/sharedrsa"
)

// SetBatchVerify toggles k-way batched verification of cache-miss
// identity certificates in Step 1 (default off). The value is stored
// atomically and may be flipped while serving; each request reads it
// once. Error taxonomy is unchanged: a failing batch falls back to
// per-certificate verification to attribute the culprit.
func (s *Server) SetBatchVerify(on bool) { s.batchVerify.Store(on) }

// verifyIdentitiesBatched is the batched Step-1 cryptographic phase:
// cache lookups first, then one k-way batched check per issuing CA over
// the misses (fps[i] is ids[i]'s fingerprint). It fills results exactly
// like the per-certificate loop and reports the lowest-index failure, as
// that loop does.
func (s *Server) verifyIdentitiesBatched(st *state, ids []pki.Signed[pki.Identity], fps []string, results []idResult, now clock.Time) error {
	type caGroup struct {
		key sharedrsa.PublicKey
		idx []int
	}
	var (
		groups  map[string]*caGroup
		order   []string
		itemErr []error // lazily allocated, indexed by request position
	)
	fail := func(i int, err error) {
		if itemErr == nil {
			itemErr = make([]error, len(ids))
		}
		itemErr[i] = err
	}
	for i := range ids {
		idc := &ids[i]
		r := &results[i]
		if e, ok := st.cache.get(fps[i]); ok {
			s.hot.cacheHitIdentity.Inc()
			if !e.validity.Contains(now) {
				fail(i, errors.New("identity certificate invalid: "+s.expiredHit(st, fps[i], e, now).Error()))
				continue
			}
			r.cached, r.hit = true, e
			continue
		}
		s.reg.Counter(MetricCacheMisses, "kind", "identity").Inc()
		caKey, ok := st.anchors.CAKeys[idc.Cert.Issuer]
		if !ok {
			fail(i, errors.New("identity certificate from untrusted CA "+idc.Cert.Issuer))
			continue
		}
		if groups == nil {
			groups = make(map[string]*caGroup, 1)
		}
		g := groups[idc.Cert.Issuer]
		if g == nil {
			g = &caGroup{key: caKey}
			groups[idc.Cert.Issuer] = g
			order = append(order, idc.Cert.Issuer)
		}
		g.idx = append(g.idx, i)
	}

	for _, ca := range order {
		g := groups[ca]
		certs := make([]pki.Signed[pki.Identity], len(g.idx))
		for j, i := range g.idx {
			certs[j] = ids[i]
		}
		res, errs := pki.VerifyIdentityBatch(certs, g.key, now, sharedrsa.BatchOptions{})
		if res.Batched {
			s.reg.Counter(MetricBatchVerifyBatches).Inc()
			s.reg.Counter(MetricBatchVerifyItems).Add(int64(len(certs)))
		}
		if res.Fallback {
			s.reg.Counter(MetricBatchVerifyFallbacks).Inc()
		}
		for j, i := range g.idx {
			if errs[j] != nil {
				fail(i, errors.New("identity certificate invalid: "+errs[j].Error()))
				continue
			}
			upk, err := subjectKey(&ids[i])
			if err != nil {
				fail(i, err)
				continue
			}
			results[i].upk = upk
		}
	}

	for _, err := range itemErr {
		if err != nil {
			return err
		}
	}
	return nil
}
