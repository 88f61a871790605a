// Derivation tracing and metrics for the authorization protocol: every
// request evaluated by Server.Authorize is assigned a request ID and
// recorded as a sequence of timed, step-labeled spans (Appendix E Steps
// 1–4 plus freshness and execution) that land in the audit log and, when
// a registry is injected, in per-step latency histograms and denial
// counters.

package authz

import (
	"strconv"
	"time"

	"jointadmin/internal/audit"
	"jointadmin/internal/obs"
)

// Step labels used in span traces and on the step-labeled metrics
// (authz_step_seconds, authz_denied_total).
const (
	// StepFreshness is the pre-step: request shape and the A21-style
	// freshness window.
	StepFreshness = "freshness"
	// StepCerts is protocol Step 1: verifying the co-signers' identity
	// certificates and their derivations.
	StepCerts = "step1_certs"
	// StepThreshold is protocol Step 2: verifying the (threshold)
	// attribute certificate and deriving group membership.
	StepThreshold = "step2_threshold"
	// StepCosign is protocol Step 3: verifying each co-signer's signed
	// request component and concluding "G says op" via A38.
	StepCosign = "step3_cosign"
	// StepACL is protocol Step 4: the ACL check with privilege
	// inheritance and the temporal validity condition.
	StepACL = "step4_acl"
	// StepExecute is the post-decision operation on the object store.
	StepExecute = "execute"
)

// Metric names exported by the authz server. All timings are seconds.
const (
	// MetricRequests counts evaluated access requests.
	MetricRequests = "authz_requests_total"
	// MetricAllowed counts approved requests.
	MetricAllowed = "authz_allowed_total"
	// MetricDenied counts denials, labeled by the step that denied.
	MetricDenied = "authz_denied_total"
	// MetricStepSeconds is the per-step latency histogram, labeled by step.
	MetricStepSeconds = "authz_step_seconds"
	// MetricRequestSeconds is the whole-request latency histogram.
	MetricRequestSeconds = "authz_request_seconds"
	// MetricRevocations counts processed revocations, labeled by kind
	// (membership, identity, crl_entry).
	MetricRevocations = "authz_revocations_total"
	// MetricRevocationSeconds times revocation processing, labeled by kind.
	MetricRevocationSeconds = "authz_revocation_seconds"
	// MetricCanceled counts requests aborted by context cancellation,
	// labeled by the step that was interrupted. Canceled requests are
	// neither approvals nor denials.
	MetricCanceled = "authz_canceled_total"
	// MetricCacheHits counts verified-certificate cache hits, labeled by
	// certificate kind (identity, attribute, delegation).
	MetricCacheHits = "authz_cert_cache_hits_total"
	// MetricCacheMisses counts verified-certificate cache misses, labeled
	// by certificate kind (identity, attribute, delegation).
	MetricCacheMisses = "authz_cert_cache_misses_total"
	// MetricCacheInvalidated counts cache entries dropped by re-anchoring
	// (the outgoing key epoch's whole cache) or by eviction (the
	// certCacheCap bound, or a hit that found its entry expired). Belief
	// mutations within an epoch drop nothing.
	MetricCacheInvalidated = "authz_cert_cache_invalidated_total"
	// MetricSnapshotSwaps counts published belief snapshots.
	MetricSnapshotSwaps = "authz_snapshot_swaps_total"
	// MetricResidualHits counts requests decided on the residual decider:
	// every request Authorize serves, warm or cold.
	MetricResidualHits = "authz_residual_hits_total"
	// MetricResidualCompiles counts residual checklists compiled on first
	// use (one per requesting group per snapshot).
	MetricResidualCompiles = "authz_residual_compiles_total"
	// MetricResidualFallbacks named the requests that fell back to the
	// full derivation replay. The residual decider decides every request,
	// so nothing increments it; the name stays exported only because the
	// frozen benchmark module reads it.
	MetricResidualFallbacks = "authz_residual_fallbacks_total"
	// MetricBatchVerifyBatches counts k-way batched certificate checks
	// run in Step 1 (one per issuing CA with ≥ 1 cache-miss certificate
	// when SetBatchVerify is on).
	MetricBatchVerifyBatches = "authz_batch_verify_batches_total"
	// MetricBatchVerifyItems counts certificates decided by the batched
	// product check (the per-batch k, summed).
	MetricBatchVerifyItems = "authz_batch_verify_items_total"
	// MetricBatchVerifyFallbacks counts batches that fell back to
	// per-certificate verification — a failed product check being
	// attributed, a duplicate-message batch under screening, or a
	// structurally broken signature.
	MetricBatchVerifyFallbacks = "authz_batch_verify_fallbacks_total"
)

// Instrument injects a metrics registry. Call it once, before serving;
// a nil registry (the default) keeps tracing in the audit log but drops
// the metrics. The registry is injected rather than global so tests and
// simulations observe exactly the servers they wired up.
func (s *Server) Instrument(reg *obs.Registry) {
	s.reg = reg
	s.buildHotMetrics()
}

// traceSteps is the fixed span vocabulary of the Authorize path; the
// handles for these are resolved once (buildHotMetrics), not per request.
var traceSteps = []string{StepFreshness, StepCerts, StepThreshold, StepCosign, StepACL, StepExecute}

// stepHandles bundles the metric handles observed for one step label.
type stepHandles struct {
	seconds  *obs.Histogram
	denied   *obs.Counter
	canceled *obs.Counter
}

// hotMetrics caches the metric handles of the per-request hot path. With
// a nil registry the handles are throwaway sinks — observing them is
// still cheaper than minting new ones per span, and the hot path stays
// allocation-free either way.
type hotMetrics struct {
	steps      map[string]stepHandles
	reqSeconds *obs.Histogram
	requests   *obs.Counter
	allowed    *obs.Counter

	residualHits                                            *obs.Counter
	cacheHitIdentity, cacheHitAttribute, cacheHitDelegation *obs.Counter
}

// buildHotMetrics resolves the per-request metric handles against the
// current registry. Called from NewServer and Instrument — both before
// the server decides requests, like reg itself.
func (s *Server) buildHotMetrics() {
	h := hotMetrics{
		steps:      make(map[string]stepHandles, len(traceSteps)),
		reqSeconds: s.reg.Histogram(MetricRequestSeconds, nil),
		requests:   s.reg.Counter(MetricRequests),
		allowed:    s.reg.Counter(MetricAllowed),

		residualHits:       s.reg.Counter(MetricResidualHits),
		cacheHitIdentity:   s.reg.Counter(MetricCacheHits, "kind", "identity"),
		cacheHitAttribute:  s.reg.Counter(MetricCacheHits, "kind", "attribute"),
		cacheHitDelegation: s.reg.Counter(MetricCacheHits, "kind", "delegation"),
	}
	for _, step := range traceSteps {
		h.steps[step] = stepHandles{
			seconds:  s.reg.Histogram(MetricStepSeconds, nil, "step", step),
			denied:   s.reg.Counter(MetricDenied, "step", step),
			canceled: s.reg.Counter(MetricCanceled, "step", step),
		}
	}
	s.hot = h
}

// reqTrace accumulates the spans of one request evaluation. sink
// records whether any audit consumer (log or journal) will read the
// entry; when false, span accumulation is skipped — the step and request
// histograms are still observed.
type reqTrace struct {
	s     *Server
	id    string
	t0    time.Time
	spans []audit.Span
	step  string
	start time.Time
	sink  bool
}

// beginTrace assigns the next request ID ("P-000007") and starts timing.
// With a sink, the spans are allocated once, one per traced step.
func (s *Server) beginTrace() *reqTrace {
	t := &reqTrace{
		s:    s,
		id:   s.requestID(),
		t0:   time.Now(),
		sink: s.log != nil || s.journalRef() != nil,
	}
	if t.sink {
		t.spans = make([]audit.Span, 0, len(traceSteps))
	}
	return t
}

// requestID renders "<name>-<%06d seq>" without fmt's reflection
// machinery (one string allocation — the ID escapes into the Decision).
func (s *Server) requestID() string {
	seq := s.reqSeq.Add(1)
	var num [20]byte
	n := strconv.AppendUint(num[:0], seq, 10)
	buf := make([]byte, 0, len(s.name)+1+6+len(n))
	buf = append(buf, s.name...)
	buf = append(buf, '-')
	for i := len(n); i < 6; i++ {
		buf = append(buf, '0')
	}
	buf = append(buf, n...)
	return string(buf)
}

// begin closes the current span (as ok) and opens the named one.
func (t *reqTrace) begin(step string) {
	t.endOK()
	t.step = step
	t.start = time.Now()
}

// end closes the current span with the outcome and detail, feeding the
// per-step histogram.
func (t *reqTrace) end(outcome, detail string) {
	if t.step == "" {
		return
	}
	d := time.Since(t.start)
	if t.sink {
		t.spans = append(t.spans, audit.Span{Step: t.step, Outcome: outcome, Detail: detail, Duration: d})
	}
	if h, ok := t.s.hot.steps[t.step]; ok {
		h.seconds.Observe(d.Seconds())
	} else {
		t.s.reg.Histogram(MetricStepSeconds, nil, "step", t.step).Observe(d.Seconds())
	}
	t.step = ""
}

// endOK closes the current span as passed.
func (t *reqTrace) endOK() { t.end("ok", "") }

// finish records the request-level metrics once the decision is made.
func (t *reqTrace) finish(allowed bool, deniedStep string) {
	t.s.hot.requests.Inc()
	if allowed {
		t.s.hot.allowed.Inc()
	} else if h, ok := t.s.hot.steps[deniedStep]; ok {
		h.denied.Inc()
	} else {
		t.s.reg.Counter(MetricDenied, "step", deniedStep).Inc()
	}
	t.s.hot.reqSeconds.Observe(time.Since(t.t0).Seconds())
}

// finishCanceled records the request-level metrics for a request aborted
// by context cancellation (counted apart from approvals and denials).
func (t *reqTrace) finishCanceled(step string) {
	t.s.hot.requests.Inc()
	if h, ok := t.s.hot.steps[step]; ok {
		h.canceled.Inc()
	} else {
		t.s.reg.Counter(MetricCanceled, "step", step).Inc()
	}
	t.s.hot.reqSeconds.Observe(time.Since(t.t0).Seconds())
}

// observeRevocation records timing and count for one revocation-processing
// call (kind: membership, identity, crl_entry).
func (s *Server) observeRevocation(kind string, start time.Time, err error) {
	outcome := "ok"
	if err != nil {
		outcome = "refused"
	}
	s.reg.Counter(MetricRevocations, "kind", kind, "outcome", outcome).Inc()
	s.reg.Histogram(MetricRevocationSeconds, nil, "kind", kind).Observe(time.Since(start).Seconds())
}
