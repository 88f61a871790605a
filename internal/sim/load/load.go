// Million-principal load synthesis and the open/closed-loop drive for
// cmd/loadgen: a coalition whose principal space reaches 10^5–10^6
// members without minting 10^6 RSA keys, a heavy-tailed request mix
// (zipfian hot objects and hot signers, joint writes, threshold and
// selective reads, deliberate sub-quorum denials), and mid-flight belief
// churn (joins via group links, identity revocations, CRL publishes)
// applied through the server's Mutation API.
//
// The trick that makes the scale honest and cheap at once: principals
// are an indexed name space ("u0000042") bound to a small pool of real
// RSA key pairs, and certificates are materialized lazily — only the
// groups and signers the zipfian workload actually touches pay keygen,
// CA and AA (joint) signatures. The coalition is defined over the whole
// population; the load report states both the population and how much
// of it was materialized.
package load

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"jointadmin/internal/acl"
	"jointadmin/internal/authority"
	"jointadmin/internal/authz"
	"jointadmin/internal/clock"
	"jointadmin/internal/obs"
	"jointadmin/internal/pki"
	"jointadmin/internal/sharedrsa"
)

// Metric names emitted by the load generator into the injected registry
// (the same registry the server's authz_* metrics land in, so one
// snapshot tells the whole story).
const (
	// MetricLoadRequests counts generated requests, labeled by kind
	// (write, read, selective, deny).
	MetricLoadRequests = "loadgen_requests_total"
	// MetricLoadAllowed counts approved decisions.
	MetricLoadAllowed = "loadgen_allowed_total"
	// MetricLoadDenied counts denied decisions.
	MetricLoadDenied = "loadgen_denied_total"
	// MetricLoadErrors counts Authorize calls that failed outright.
	MetricLoadErrors = "loadgen_errors_total"
	// MetricLoadUnexpected counts decisions that contradicted the
	// request's expected outcome — correctness drift under churn.
	MetricLoadUnexpected = "loadgen_unexpected_total"
	// MetricLoadDropped counts open-loop arrivals discarded because the
	// queue was full (the overload signal of an open-loop run).
	MetricLoadDropped = "loadgen_dropped_total"
	// MetricLoadSeconds is the end-to-end request latency histogram; in
	// open-loop mode it is measured from the scheduled arrival time, so
	// queueing delay is included (no coordinated omission).
	MetricLoadSeconds = "loadgen_request_seconds"
	// MetricLoadChurn counts applied belief mutations, labeled by verb.
	MetricLoadChurn = "loadgen_churn_total"
	// MetricLoadInflight gauges requests currently being decided.
	MetricLoadInflight = "loadgen_inflight"
)

// LoadBuckets are the latency histogram bounds for MetricLoadSeconds:
// 10µs to ~5s at ×1.3 per step, dense enough that p999 interpolation
// stays within ±15% of the true value.
func LoadBuckets() []float64 {
	var b []float64
	for v := 10e-6; v < 5; v *= 1.3 {
		b = append(b, v)
	}
	return b
}

// LoadProfile sizes the synthesized coalition and the request mix.
type LoadProfile struct {
	// Principals is the coalition's principal population. Group
	// memberships are drawn from the whole population; only principals
	// the workload selects are materialized.
	Principals int
	// Objects is the number of protected objects in the server's store.
	Objects int
	// GroupSize is n of each object's m-of-n write group (its read
	// group is 1-of-n over the same members).
	GroupSize int
	// WriteQuorum is m: co-signers per joint write.
	WriteQuorum int
	// Keys is the pool of real RSA key pairs principals map onto.
	Keys int
	// Bits is the RSA modulus size for all keys.
	Bits int
	// PoolSize is how many distinct requests are pre-signed and then
	// replayed (freshness checking is off, so replay is valid).
	PoolSize int
	// ZipfS is the zipf skew (> 1) for object and principal selection.
	ZipfS float64
	// ReadFrac, SelectiveFrac, DenyFrac split the request mix; the
	// remainder is joint writes. Selective reads exercise the A35
	// single-subject certificate path.
	ReadFrac      float64
	SelectiveFrac float64
	DenyFrac      float64
	// Seed makes the synthesized coalition and mix reproducible.
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
	if p.GroupSize == 0 {
		p.GroupSize = 3
	}
	if p.WriteQuorum == 0 {
		p.WriteQuorum = 2
	}
	if p.Keys == 0 {
		p.Keys = 32
	}
	if p.Bits == 0 {
		p.Bits = 512
	}
	if p.PoolSize == 0 {
		p.PoolSize = 256
	}
	if p.ZipfS == 0 {
		p.ZipfS = 1.2
	}
	if p.ReadFrac == 0 && p.SelectiveFrac == 0 && p.DenyFrac == 0 {
		p.ReadFrac, p.SelectiveFrac, p.DenyFrac = 0.55, 0.10, 0.05
	}
	if p.WriteQuorum > p.GroupSize {
		p.WriteQuorum = p.GroupSize
	}
	return p
}

// PooledRequest is one pre-signed request variant of the replay pool.
type PooledRequest struct {
	Kind      string // write | read | selective | deny
	Object    string
	WantAllow bool
	Req       authz.AccessRequest

	// wireJSON is Req pre-encoded for transport mode (startWire fills it),
	// mirroring a real client that signs and encodes once, then retries
	// the same bytes.
	wireJSON string
}

// LoadFixture is a synthesized coalition plus its replay pool and churn
// machinery, ready to drive a server.
type LoadFixture struct {
	Profile LoadProfile
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

	// Materialization counts for honest reporting.
	matPrincipals int
	matGroups     int

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
	est, err := authority.EstablishWithDealer("AA", domains, p.Bits, clk)
	if err != nil {
		return nil, fmt.Errorf("sim: establish AA: %w", err)
	}
	ra, err := authority.NewRA("RA", p.Bits, clk)
	if err != nil {
		return nil, fmt.Errorf("sim: RA: %w", err)
	}
	f := &LoadFixture{
		Profile:  p,
		clk:      clk,
		est:      est,
		ra:       ra,
		idCerts:  make(map[int]pki.Signed[pki.Identity]),
		objcerts: make(map[int]objCerts),
		validity: clock.NewInterval(50, clock.Time(1)<<40),
	}
	for i := 1; i <= 3; i++ {
		ca, err := authority.NewDomainCA(fmt.Sprintf("CA%d", i), p.Bits, clk)
		if err != nil {
			return nil, fmt.Errorf("sim: CA%d: %w", i, err)
		}
		f.cas = append(f.cas, ca)
	}
	f.keys = make([]*pki.KeyPair, p.Keys)
	f.keyIDs = make([]string, p.Keys)
	for i := range f.keys {
		kp, err := pki.GenerateKeyPair(p.Bits, nil)
		if err != nil {
			return nil, fmt.Errorf("sim: user key %d: %w", i, err)
		}
		f.keys[i] = kp
		f.keyIDs[i] = kp.KeyID()
	}
	f.churnKeys = make([]*pki.KeyPair, 4)
	for i := range f.churnKeys {
		kp, err := pki.GenerateKeyPair(p.Bits, nil)
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

// MaterializedPrincipals reports how many principals were actually
// issued identity certificates or bound into group certificates.
func (f *LoadFixture) MaterializedPrincipals() int { return f.matPrincipals }

// MaterializedGroups reports how many groups had certificates issued.
func (f *LoadFixture) MaterializedGroups() int { return f.matGroups }

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
	f.matPrincipals++
	return c, nil
}

// groupsOf lazily issues (and caches) the write and read group
// certificates of an object, drawing the member set zipf-hot from the
// whole population.
func (f *LoadFixture) groupsOf(o int, pick func() int) (objCerts, error) {
	if c, ok := f.objcerts[o]; ok {
		return c, nil
	}
	p := f.Profile
	seen := make(map[int]bool, p.GroupSize)
	members := make([]int, 0, p.GroupSize)
	for len(members) < p.GroupSize {
		i := pick()
		for seen[i] { // linear probe past zipf collisions
			i = (i + 1) % p.Principals
		}
		seen[i] = true
		members = append(members, i)
	}
	subjects := make([]pki.BoundSubject, len(members))
	for j, i := range members {
		subjects[j] = pki.BoundSubject{Name: principalName(i), KeyID: f.keyIDs[i%len(f.keys)]}
	}
	wc, err := f.est.AA.IssueThreshold(writeGroup(o), p.WriteQuorum, subjects, f.validity)
	if err != nil {
		return objCerts{}, fmt.Errorf("sim: write group of %s: %w", objectName(o), err)
	}
	rc, err := f.est.AA.IssueThreshold(readGroup(o), 1, subjects, f.validity)
	if err != nil {
		return objCerts{}, fmt.Errorf("sim: read group of %s: %w", objectName(o), err)
	}
	c := objCerts{write: wc, read: rc, members: members}
	f.objcerts[o] = c
	f.matGroups += 2
	return c, nil
}

// buildPool pre-signs PoolSize request variants with zipf-hot objects
// and signers.
func (f *LoadFixture) buildPool() error {
	p := f.Profile
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
		case x < p.ReadFrac:
			kind = "read"
		case x < p.ReadFrac+p.SelectiveFrac:
			kind = "selective"
		case x < p.ReadFrac+p.SelectiveFrac+p.DenyFrac:
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
	p := f.Profile
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
		if err := sign(oc.members[:p.WriteQuorum], acl.Write, []byte(fmt.Sprintf("v%d", seq))); err != nil {
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

// RunConfig parameterizes one drive of the workload.
type RunConfig struct {
	// Mode is "closed" (Concurrency workers back to back) or "open"
	// (Poisson-free fixed-rate arrivals into a bounded queue).
	Mode string
	// Duration is the wall-clock run length.
	Duration time.Duration
	// Concurrency is the worker count.
	Concurrency int
	// RateHz is the open-loop arrival rate (requests/second).
	RateHz float64
	// ChurnEvery applies one Churn mutation at this period; 0 disables.
	ChurnEvery time.Duration
	// Seed drives the workers' request selection.
	Seed int64
	// Transport drives the workload over real localhost TCP through the
	// daemon serve pipeline and mux clients, so latency includes framing,
	// JSON codecs, kernel round trips and correlation bookkeeping.
	Transport bool
	// Conns is the mux client connection count in transport mode
	// (default 4, capped at Concurrency).
	Conns int
}

// RunResult summarizes one drive.
type RunResult struct {
	Mode         string  `json:"mode"`
	DurationS    float64 `json:"duration_s"`
	Sent         int64   `json:"sent"`
	Allowed      int64   `json:"allowed"`
	Denied       int64   `json:"denied"`
	Errors       int64   `json:"errors"`
	Unexpected   int64   `json:"unexpected"`
	Dropped      int64   `json:"dropped"`
	ChurnApplied int64   `json:"churn_applied"`
	RPS          float64 `json:"rps"`
	P50Us        float64 `json:"p50_us"`
	P90Us        float64 `json:"p90_us"`
	P99Us        float64 `json:"p99_us"`
	P999Us       float64 `json:"p999_us"`
	MeanUs       float64 `json:"mean_us"`
	// Wire reports the transport-layer counters of a transport-mode run
	// (nil for in-process runs).
	Wire *WireStats `json:"wire,omitempty"`
}

// Run drives the server with the pooled workload for cfg.Duration,
// recording latency and outcome metrics into reg (which may also be the
// server's instrumented registry). Closed-loop latency is service time;
// open-loop latency is measured from each request's scheduled arrival,
// so queueing under overload is visible rather than omitted.
func (f *LoadFixture) Run(ctx context.Context, cfg RunConfig, reg *obs.Registry) (RunResult, error) {
	if len(f.pool) == 0 {
		return RunResult{}, fmt.Errorf("sim: empty request pool")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	mode := cfg.Mode
	if mode == "" {
		mode = "closed"
	}
	if mode != "closed" && mode != "open" {
		return RunResult{}, fmt.Errorf("sim: unknown mode %q", mode)
	}
	if mode == "open" && cfg.RateHz <= 0 {
		return RunResult{}, fmt.Errorf("sim: open loop needs RateHz > 0")
	}

	lat := reg.Histogram(MetricLoadSeconds, LoadBuckets())
	allowed := reg.Counter(MetricLoadAllowed)
	denied := reg.Counter(MetricLoadDenied)
	errs := reg.Counter(MetricLoadErrors)
	unexpected := reg.Counter(MetricLoadUnexpected)
	dropped := reg.Counter(MetricLoadDropped)
	inflight := reg.Gauge(MetricLoadInflight)
	kindCounters := map[string]*obs.Counter{}
	for _, k := range []string{"write", "read", "selective", "deny"} {
		kindCounters[k] = reg.Counter(MetricLoadRequests, "kind", k)
	}

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	var sent, churned atomic.Int64
	// Each worker drains its decision through the allocation-free wire
	// encoder into a private reusable buffer — the consumer-side cost a
	// real poller would pay, without feeding the garbage collector.
	decide := func(pr *PooledRequest, since time.Time, buf *[]byte) {
		inflight.Inc()
		dec, err := f.Server.Authorize(runCtx, pr.Req)
		inflight.Dec()
		if runCtx.Err() != nil && err != nil {
			return // aborted by the deadline, not an outcome
		}
		*buf = authz.AppendDecisionJSON((*buf)[:0], &dec)
		sent.Add(1)
		kindCounters[pr.Kind].Inc()
		lat.ObserveSince(since)
		switch {
		case err != nil && !dec.Allowed && dec.Reason != "":
			denied.Inc() // denial with its error form
		case err != nil:
			errs.Inc()
		case dec.Allowed:
			allowed.Inc()
		default:
			denied.Inc()
		}
		if dec.Allowed != pr.WantAllow {
			unexpected.Inc()
		}
	}

	// Transport mode swaps the decision function: same pool, same
	// counters, but every request crosses localhost TCP through a mux
	// client and the daemon serve pipeline.
	var wire *wireHarness
	if cfg.Transport {
		wh, err := f.startWire(cfg, reg)
		if err != nil {
			return RunResult{}, err
		}
		defer wh.Close()
		wire = wh
		decide = func(pr *PooledRequest, since time.Time, _ *[]byte) {
			inflight.Inc()
			rep, err := wh.call(runCtx, pr)
			inflight.Dec()
			if runCtx.Err() != nil && err != nil {
				return // aborted by the deadline, not an outcome
			}
			sent.Add(1)
			kindCounters[pr.Kind].Inc()
			lat.ObserveSince(since)
			outcome := wireOutcome(rep, err)
			switch outcome {
			case "allowed":
				allowed.Inc()
			case "denied":
				denied.Inc()
			default:
				errs.Inc()
			}
			if (outcome == "allowed") != pr.WantAllow {
				unexpected.Inc()
			}
		}
	}

	var wg sync.WaitGroup
	if cfg.ChurnEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(cfg.ChurnEvery)
			defer tick.Stop()
			for {
				select {
				case <-runCtx.Done():
					return
				case <-tick.C:
					if verb, err := f.Churn(runCtx); err == nil {
						churned.Add(1)
						reg.Counter(MetricLoadChurn, "verb", verb).Inc()
					}
				}
			}
		}()
	}

	start := time.Now()
	switch mode {
	case "closed":
		for w := 0; w < cfg.Concurrency; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.Seed + int64(w)))
				zipf := rand.NewZipf(rng, zipfSOf(f.Profile), 1, uint64(len(f.pool)-1))
				buf := make([]byte, 0, 512)
				for runCtx.Err() == nil {
					pr := &f.pool[zipf.Uint64()]
					decide(pr, time.Now(), &buf)
				}
			}(w)
		}
	case "open":
		queue := make(chan openArrival, 16384)
		for w := 0; w < cfg.Concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				buf := make([]byte, 0, 512)
				for a := range queue {
					decide(a.pr, a.at, &buf)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(queue)
			rng := rand.New(rand.NewSource(cfg.Seed))
			zipf := rand.NewZipf(rng, zipfSOf(f.Profile), 1, uint64(len(f.pool)-1))
			interval := time.Duration(float64(time.Second) / cfg.RateHz)
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-runCtx.Done():
					return
				case at := <-tickChan(tick):
					pr := &f.pool[zipf.Uint64()]
					select {
					case queue <- openArrival{pr: pr, at: at}:
					default:
						dropped.Inc()
					}
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	snap := lat.Snapshot()
	res := RunResult{
		Mode:         mode,
		DurationS:    elapsed,
		Sent:         sent.Load(),
		Allowed:      allowed.Value(),
		Denied:       denied.Value(),
		Errors:       errs.Value(),
		Unexpected:   unexpected.Value(),
		Dropped:      dropped.Value(),
		ChurnApplied: churned.Load(),
		P50Us:        snap.Quantile(0.50) * 1e6,
		P90Us:        snap.Quantile(0.90) * 1e6,
		P99Us:        snap.Quantile(0.99) * 1e6,
		P999Us:       snap.Quantile(0.999) * 1e6,
		MeanUs:       snap.Mean() * 1e6,
	}
	if elapsed > 0 {
		res.RPS = float64(res.Sent) / elapsed
	}
	if wire != nil {
		res.Wire = wire.stats(reg)
	}
	return res, nil
}

type openArrival struct {
	pr *PooledRequest
	at time.Time
}

func tickChan(t *time.Ticker) <-chan time.Time { return t.C }

// zipfSOf returns the pool-selection skew (reuses the profile's).
func zipfSOf(p LoadProfile) float64 {
	if p.ZipfS > 1 {
		return p.ZipfS
	}
	return 1.2
}
