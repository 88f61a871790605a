package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"jointadmin/internal/audit"
	"jointadmin/internal/authority"
	"jointadmin/internal/authz"
	"jointadmin/internal/clock"
	"jointadmin/internal/daemon"
	"jointadmin/internal/obs"
	"jointadmin/internal/pki"
	"jointadmin/internal/replication"
	"jointadmin/internal/sharedrsa"
	"jointadmin/internal/transport"
	"jointadmin/internal/wal"
)

// layerMetrics is every per-layer metric, in BENCHMARK.json's order. A
// traced run reports all of them; one a workload does not exercise (no
// WAL in warm_decide, say) reads 0 there.
var layerMetrics = []struct{ name, unit, better string }{
	{"authz.authorize_residual_us", "us", "lower"},
	{"authz.encode_decision_ns", "ns", "lower"},
	{"audit.append_ns", "ns", "lower"},
	{"pki.fingerprint_ns", "ns", "lower"},
	{"sharedrsa.verify_us", "us", "lower"},
	{"authz.authorize_cold_us", "us", "lower"},
	{"authz.authorize_replay_us", "us", "lower"},
	{"pki.verify_identity_us", "us", "lower"},
	{"sharedrsa.batch_verify_us_per_item", "us", "lower"},
	{"logic.fork_ns", "ns", "lower"},
	{"authz.apply_ms", "ms", "lower"},
	{"authz.recompile_residuals_ms", "ms", "lower"},
	{"logic.seal_flatten_us", "us", "lower"},
	{"authz.residual_hit_ratio", "ratio", "higher"},
	{"authz.cert_cache_hit_ratio", "ratio", "higher"},
	{"authz.snapshot_swaps", "count", "lower"},
	{"authz.batch_verify_items", "count", "lower"},
	{"sharedrsa.joint_sign_ms", "ms", "lower"},
	{"authority.issue_threshold_ms", "ms", "lower"},
	{"authority.revoke_ms", "ms", "lower"},
	{"wal.append_sync_us", "us", "lower"},
	{"wal.append_nosync_us", "us", "lower"},
	{"wal.fsyncs_per_mutation", "count", "lower"},
	{"wal.bytes_per_mutation", "B", "lower"},
	{"wal.replay_ms", "ms", "lower"},
	{"wal.compact_ms", "ms", "lower"},
	{"replication.snapshot_install_ms", "ms", "lower"},
	{"replication.ship_apply_ms", "ms", "lower"},
	{"replication.lag_records_max", "count", "lower"},
	{"replication.bytes_per_mutation", "B", "lower"},
	{"transport.tcp_echo_rtt_us", "us", "lower"},
	{"transport.bytes_per_request", "B", "lower"},
	{"transport.send_retries", "count", "lower"},
	{"pki.marshal_request_us", "us", "lower"},
	{"daemon.handle_authorize_us", "us", "lower"},
	{"daemon.wire_overhead_us", "us", "lower"},
	{"daemon.dedup_replays", "count", "lower"},
	{"daemon.mux_resends", "count", "lower"},
	{"authz.authorize_delegated_us", "us", "lower"},
	{"delegation.compose_us", "us", "lower"},
	{"daemon.handle_read_us", "us", "lower"},
	{"jointsig.cosign_request_us", "us", "lower"},
	{"coalition.rekey_ms", "ms", "lower"},
	{"coalition.certs_reissued_per_rekey", "count", "lower"},
	{"sharedrsa.dealer_keygen_ms", "ms", "lower"},
	{"authz.reanchor_ms", "ms", "lower"},
	{"daemon.authorize_stall_max_ms", "ms", "lower"},
	{"runtime.alloc_bytes_per_authorize", "B", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_total_ms", "ms", "lower"},
	{"runtime.peak_rss_mb", "MB", "lower"},
	{"load.authorize_p99_us", "us", "lower"},
	{"load.authorize_p999_us", "us", "lower"},
	{"load.admin_ack_p99_ms", "ms", "lower"},
	{"load.admin_visible_p99_ms", "ms", "lower"},
	{"load.mutations_late", "count", "lower"},
	{"load.round_spread_pct", "%", "lower"},
	{"load.trace_overhead_pct", "%", "lower"},
	{"load.slowdown", "ratio", "lower"},
	{"load.raw_authorize_rps", "1/s", "higher"},
	{"load.raw_authorize_p50_us", "us", "lower"},
	{"load.raw_admin_ack_p50_ms", "ms", "lower"},
	{"load.open_p50_us", "us", "lower"},
	{"load.open_p99_us", "us", "lower"},
	{"load.open_late_frac", "ratio", "lower"},
	{"load.gen_lag_p99_us", "us", "lower"},
}

// layers collects per-layer values by name; the unit comes from
// layerMetrics.
type layers map[string]float64

func (l layers) us(name string, d time.Duration) { l[name] = float64(d) / 1e3 }
func (l layers) ms(name string, d time.Duration) { l[name] = float64(d) / 1e6 }
func (l layers) ns(name string, d time.Duration) { l[name] = float64(d) }

// perLayer fills res with every per-layer metric and writes the trace
// file. Values come from three places: the traced rounds' spans, counts
// in the registries injected into the stack, and isolated probes that
// time one layer's public functions on inputs taken from the workload.
func (r *run) perLayer(ctx context.Context, res *result, o options) error {
	l := layers{}
	r.loadLayer(l)
	if err := r.sys.probe(ctx, l, r, o); err != nil {
		return fmt.Errorf("per-layer probes: %w", err)
	}
	counts := map[string]int{}
	for _, rd := range r.timed {
		counts["decisions_untraced"] += len(rd.timedLat())
		counts["mutations_untraced"] += len(rd.timedAdmin())
	}
	for _, rd := range r.traced {
		counts["decisions_traced"] += len(rd.timedLat())
		counts["mutations_traced"] += len(rd.timedAdmin())
	}
	for _, m := range layerMetrics {
		res.Metrics[m.name] = metric{l[m.name], m.unit}
	}
	return r.tr.write(o.out, traceFile{Workload: r.sp.name, Seed: o.seed, Host: r.host, PerLayer: res.Metrics, Counts: counts})
}

// loadLayer fills the runtime.* and load.* diagnostics every workload
// has: tails of the untraced rounds, GC work, the timings as measured
// beside the machine's slowdown, and what tracing cost.
func (r *run) loadLayer(l layers) {
	var all []int64
	var rps, tracedRps []float64
	var mem memDelta
	ops := 0
	for _, rd := range r.timed {
		all = append(all, rd.timedLat()...)
		rps = append(rps, float64(len(rd.timedLat()))/rd.wall().Seconds())
		mem.allocBytes += rd.mem.allocBytes
		mem.gcCycles += rd.mem.gcCycles
		mem.pauseNs += rd.mem.pauseNs
		ops += len(rd.lat)
	}
	for _, rd := range r.traced {
		tracedRps = append(tracedRps, float64(len(rd.timedLat()))/rd.wall().Seconds())
	}
	for _, rd := range append(append([]*round(nil), r.timed...), r.traced...) {
		l["load.mutations_late"] += float64(rd.late)
	}
	sorted := sortedCopy(all)
	l["load.authorize_p99_us"] = float64(quantile(sorted, 0.99)) / 1e3
	l["load.authorize_p999_us"] = float64(quantile(sorted, 0.999)) / 1e3
	l["load.admin_ack_p99_ms"] = adminQuantile(r.timed, 0.99, func(s adminSample) int64 { return s.ack - s.start })
	l["load.admin_visible_p99_ms"] = adminQuantile(r.timed, 0.99, func(s adminSample) int64 { return s.visible - s.start })
	sort.Float64s(rps)
	l["load.round_spread_pct"] = 100 * (rps[len(rps)-1] - rps[0]) / medianFloat(rps)
	raw := r.figures(true)
	l["load.slowdown"], l["load.raw_authorize_rps"] = r.slowdown(), raw.rps
	l["load.raw_authorize_p50_us"], l["load.raw_admin_ack_p50_ms"] = raw.p50us, raw.ackMs
	if len(tracedRps) > 0 {
		// The best round of each kind: two rounds are too few for
		// anything sturdier.
		sort.Float64s(tracedRps)
		best := rps[len(rps)-1]
		l["load.trace_overhead_pct"] = 100 * (best - tracedRps[len(tracedRps)-1]) / best
	}
	l["runtime.alloc_bytes_per_authorize"] = float64(mem.allocBytes) / float64(ops)
	l["runtime.gc_cycles"] = float64(mem.gcCycles)
	l["runtime.gc_pause_total_ms"] = float64(mem.pauseNs) / 1e6
	l["runtime.peak_rss_mb"] = peakRSSMB()
}

// peakRSSMB reads the process's resident-set high-water mark (0 where
// /proc is not available).
func peakRSSMB() float64 {
	body, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimPrefix(line, "VmHWM:"), "%f", &kb) //nolint:errcheck // 0 on a malformed line
			return kb * 1024 / 1e6
		}
	}
	return 0
}

// sumCounter adds up a counter over all its label sets.
func sumCounter(reg *obs.Registry, name string) float64 {
	var sum int64
	for _, c := range reg.Snapshot().Counters {
		if c.Name == name || strings.HasPrefix(c.Name, name+"{") {
			sum += c.Value
		}
	}
	return float64(sum)
}

// authzCounts reads the authorization server's own counters: how often
// the residual fast path and the certificate cache decided, how many
// snapshots were published.
func authzCounts(l layers, reg *obs.Registry) {
	hits, falls := sumCounter(reg, authz.MetricResidualHits), sumCounter(reg, authz.MetricResidualFallbacks)
	if hits+falls > 0 {
		l["authz.residual_hit_ratio"] = hits / (hits + falls)
	}
	ch, cm := sumCounter(reg, authz.MetricCacheHits), sumCounter(reg, authz.MetricCacheMisses)
	if ch+cm > 0 {
		l["authz.cert_cache_hit_ratio"] = ch / (ch + cm)
	}
	l["authz.snapshot_swaps"] = sumCounter(reg, authz.MetricSnapshotSwaps)
	l["authz.batch_verify_items"] = sumCounter(reg, authz.MetricBatchVerifyItems)
}

const probePool = 128

// firstErr keeps the first error of a probe's many timed calls, so a
// timing loop reports a failing call without stopping to check each one.
type firstErr struct{ err error }

func (f *firstErr) keep(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// probeN is how many timed calls a probe makes (a tenth under -quick).
func probeN(n int, quick bool) int {
	if quick {
		n /= 10
	}
	if n < 3 {
		n = 3
	}
	return n
}

// probe times the authorization layers of the in-process stack on the
// workload's own pool and server.
func (s *inproc) probe(ctx context.Context, l layers, _ *run, o options) error {
	quick := o.quick
	authzCounts(l, s.reg)
	srv := s.f.Server
	var failure firstErr
	// The probes decide the first probePool pooled requests: enough for a
	// median, and a full-replay pass over them stays under a second.
	pool := s.pool
	if len(pool) > probePool {
		pool = pool[:probePool]
	}
	pass := func() []int64 {
		d := make([]int64, len(pool))
		for i := range pool {
			t0 := time.Now()
			dec, err := srv.Authorize(ctx, pool[i].Req)
			d[i] = int64(time.Since(t0))
			failure.keep(checkDecision(dec, err, pool[i].WantAllow))
		}
		return d
	}
	// Cold: the first decision of every pooled request after a publish
	// dropped the certificate cache. The same publishes time Apply
	// (Churn issues the certificate and applies it; the fixture does not
	// expose the two apart).
	var cold, churn []int64
	for i := 0; i < probeN(12, quick); i++ {
		t0 := time.Now()
		if _, err := s.f.Churn(ctx); err != nil {
			return err
		}
		churn = append(churn, int64(time.Since(t0)))
		cold = append(cold, pass()...)
	}
	l.us("authz.authorize_cold_us", time.Duration(medianInt(cold)))
	l.ms("authz.apply_ms", time.Duration(medianInt(churn)))
	var warm []int64
	for i := 0; i < probeN(12, quick); i++ {
		warm = append(warm, pass()...)
	}
	l.us("authz.authorize_residual_us", time.Duration(medianInt(warm)))
	srv.SetResidualsEnabled(false)
	pass()
	var replay []int64
	for i := 0; i < 3; i++ {
		replay = append(replay, pass()...)
	}
	srv.SetResidualsEnabled(true)
	l.us("authz.authorize_replay_us", time.Duration(medianInt(replay)))
	if failure.err != nil {
		return failure.err
	}
	l.ms("authz.recompile_residuals_ms", timeEach(probeN(12, quick), srv.RecompileResiduals))

	dec, _ := srv.Authorize(ctx, s.pool[0].Req) //nolint:errcheck // checked by the passes above
	buf := make([]byte, 0, 1024)
	l.ns("authz.encode_decision_ns", timeBatched(50, 1000, func() { buf = authz.AppendDecisionJSON(buf[:0], &dec) }))
	id := s.pool[0].Req.Identities[0]
	l.ns("pki.fingerprint_ns", timeBatched(50, 1000, func() { _ = pki.Fingerprint(id) }))
	snap := srv.Snapshot()
	l.ns("logic.fork_ns", timeBatched(50, 1000, func() { _ = snap.Engine() }))

	// Seal after one new belief, on an ever deeper chain of forks, so the
	// amortized flatten of the layered store is part of the figure.
	eng, belief := snap.Engine(), snap.Beliefs()[0].F
	l.us("logic.seal_flatten_us", timeEach(32, func() {
		eng.Assume(belief, "benchmark probe")
		eng.Seal()
		eng = eng.Fork()
	}))

	alog := audit.NewLog()
	alog.SetRetention(daemonAuditRetention, nil)
	entry := audit.Entry{Server: "P", Requestor: "u0000001", Operation: "read", Object: s.pool[0].Object,
		Group: "Gr000001", RequestID: "P-000001", Spans: make([]audit.Span, 6), ProofTrace: strings.Repeat("x", 400)}
	l.ns("audit.append_ns", timeBatched(50, 1000, func() { alog.Record(entry) }))
	return probeSignatures(l, s.pool[0].Req.Identities[0].Cert.NotAfter, quick)
}

// probeSignatures times one RSA-FDH verification, one identity
// certificate verification and the k-way batch check on certificates of
// the workload's shape (512-bit keys) issued by a CA of the probe's own:
// the fixture keeps its authorities private.
func probeSignatures(l layers, notAfter clock.Time, quick bool) error {
	clk := clock.New(100)
	ca, err := authority.NewDomainCA("CAprobe", 512, clk)
	if err != nil {
		return err
	}
	var certs []pki.Signed[pki.Identity]
	for i := 0; i < 8; i++ {
		kp, err := pki.GenerateKeyPair(512, nil)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("probe-u%d", i)
		ca.Register(name, kp.Public())
		c, err := ca.IssueIdentity(name, clock.NewInterval(50, notAfter))
		if err != nil {
			return err
		}
		certs = append(certs, c)
	}
	n := probeN(300, quick)
	var failure firstErr
	keep := failure.keep
	l.us("pki.verify_identity_us", timeEach(n, func() { keep(pki.VerifyIdentity(certs[0], ca.Public(), clk.Now())) }))
	l.us("sharedrsa.batch_verify_us_per_item", timeEach(n, func() {
		_, errs := pki.VerifyIdentityBatch(certs, ca.Public(), clk.Now(), sharedrsa.BatchOptions{})
		for _, err := range errs {
			keep(err)
		}
	})/time.Duration(len(certs)))
	kp, err := pki.GenerateKeyPair(512, nil)
	if err != nil {
		return err
	}
	msg := []byte("read obj000001 at t100")
	sig, err := kp.AsSigner().Sign(msg)
	if err != nil {
		return err
	}
	l.us("sharedrsa.verify_us", timeEach(n, func() { keep(sharedrsa.Verify(msg, kp.Public(), sig)) }))
	return failure.err
}

// probeIssuance times joint signing and certificate issuance by a
// three-domain authority of the workloads' shape.
func probeIssuance(l layers, quick bool) error {
	clk := clock.New(100)
	est, err := authority.EstablishWithDealer("AAprobe", dynDomains, 512, clk)
	if err != nil {
		return err
	}
	ra, err := authority.NewRA("RAprobe", 512, clk)
	if err != nil {
		return err
	}
	split, err := sharedrsa.DealerSplit(512, 3, nil)
	if err != nil {
		return err
	}
	n := probeN(100, quick)
	var failure firstErr
	keep := failure.keep
	msg := []byte("threshold attribute certificate body")
	l.ms("sharedrsa.joint_sign_ms", timeEach(n, func() {
		_, err := sharedrsa.SignJointly(msg, split.Public, split.Shares)
		keep(err)
	}))
	subjects := []pki.BoundSubject{{Name: "alice", KeyID: "k1"}, {Name: "bob", KeyID: "k2"}, {Name: "carol", KeyID: "k3"}}
	validity := clock.NewInterval(50, 1<<40)
	var cert pki.Signed[pki.ThresholdAttribute]
	i := 0
	l.ms("authority.issue_threshold_ms", timeEach(n, func() {
		i++
		cert, err = est.AA.IssueThreshold(fmt.Sprintf("G_probe%d", i), 2, subjects, validity)
		keep(err)
	}))
	l.ms("authority.revoke_ms", timeEach(n, func() {
		_, err := ra.Revoke(cert, clk.Now())
		keep(err)
	}))
	l.ms("sharedrsa.dealer_keygen_ms", timeEach(probeN(40, quick), func() {
		_, err := sharedrsa.DealerSplit(512, 4, nil)
		keep(err)
	}))
	return failure.err
}

// probe measures the wire stack's layers: the open-loop phase, the
// follower's handler without TCP, the transport alone, the write-ahead
// log on the run's own records, and a fresh follower's catch-up.
func (s *wire) probe(ctx context.Context, l layers, r *run, o options) error {
	authzCounts(l, s.freg)
	mutations := float64(s.mutations)
	decisions := sumCounter(s.authzReg, daemon.MetricMuxCalls)

	// Counts since set-up ended, read before the probes add traffic.
	now := s.counts()
	l["wal.fsyncs_per_mutation"] = (now.fsyncs - s.base.fsyncs) / mutations
	l["wal.bytes_per_mutation"] = (now.walBytes - s.base.walBytes) / mutations
	l["transport.bytes_per_request"] = (now.clientBytes - s.base.clientBytes) / decisions
	l["replication.bytes_per_mutation"] = (now.replBytes - s.base.replBytes) / mutations
	l["replication.lag_records_max"] = float64(s.lagMax)
	for _, reg := range []*obs.Registry{s.wreg, s.freg, s.authzReg, s.adminReg} {
		l["transport.send_retries"] += sumCounter(reg, transport.MetricSendRetries)
		l["daemon.dedup_replays"] += sumCounter(reg, daemon.MetricDedupReplays)
		l["daemon.mux_resends"] += sumCounter(reg, daemon.MetricMuxResends)
	}
	var ship []int64
	for _, rd := range append(append([]*round(nil), r.timed...), r.traced...) {
		for _, a := range rd.timedAdmin() {
			ship = append(ship, a.visible-a.ack)
		}
	}
	l.ms("replication.ship_apply_ms", time.Duration(medianInt(ship)))

	if err := s.openLoop(ctx, l, o); err != nil {
		return err
	}

	// The follower's handler, called directly: the wire round trip minus
	// this is what TCP, framing, mux and dedup cost.
	n := probeN(40, o.quick)
	var handle, delegated []int64
	var failure firstErr
	for i := 0; i < n; i++ {
		for k := range s.pool {
			p := &s.pool[k]
			t0 := time.Now()
			rep := s.follower.Handle(ctx, daemon.Command{Cmd: "authorize", Data: p.data})
			d := int64(time.Since(t0))
			failure.keep(checkReply(rep, p.want))
			handle = append(handle, d)
			if p.kind == "delegated" {
				delegated = append(delegated, d)
			}
		}
	}
	l.us("daemon.handle_authorize_us", time.Duration(medianInt(handle)))
	l.us("authz.authorize_delegated_us", time.Duration(medianInt(delegated)))
	var wireLat []int64
	for _, rd := range r.timed {
		wireLat = append(wireLat, rd.timedLat()...)
	}
	l["daemon.wire_overhead_us"] = float64(medianInt(wireLat))/1e3 - l["daemon.handle_authorize_us"]

	var req authz.AccessRequest
	if err := json.Unmarshal([]byte(s.pool[0].data), &req); err != nil {
		return err
	}
	l.us("pki.marshal_request_us", timeEach(probeN(300, o.quick), func() {
		_, err := json.Marshal(req)
		failure.keep(err)
	}))
	if failure.err != nil {
		return failure.err
	}
	if err := probeEcho(l, o.quick); err != nil {
		return err
	}
	if err := probeIssuance(l, o.quick); err != nil {
		return err
	}
	if err := probeDelegation(l, o.quick); err != nil {
		return err
	}
	if err := s.probeFreshFollower(l); err != nil {
		return err
	}
	return s.probeWAL(l, o)
}

// histogramCount is how many observations the named histogram holds.
func histogramCount(reg *obs.Registry, name string) float64 {
	h, _ := reg.Snapshot().HistogramValueOf(name)
	return float64(h.Count)
}

// openLoop is the diagnostic open-loop phase: requests fall due at a
// fixed 1000/s whatever the follower's pace, and each is timed from its
// due instant, so a stall shows as latency of the requests queued
// behind it. The generator's own lateness is reported beside it.
func (s *wire) openLoop(ctx context.Context, l layers, o options) error {
	const (
		rate      = 1000
		limit     = 5 * time.Millisecond
		callers   = 8
		queueSize = 4096 // four seconds of arrivals: the generator never blocks on a stalled follower
	)
	seconds := 5
	if o.seconds < 15 {
		seconds = (o.seconds + 2) / 3
	}
	if o.quick {
		seconds = 1
	}
	total := rate * seconds
	type arrival struct {
		k   int
		due time.Time
	}
	queue := make(chan arrival, queueSize)
	lat := make(chan int64, total)
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		go func() {
			var failure firstErr
			for a := range queue {
				err := s.authorize(ctx, s.pool[a.k].data, s.pool[a.k].want)
				lat <- int64(time.Since(a.due))
				failure.keep(err)
			}
			errs <- failure.err
		}()
	}
	genLag := make([]int64, total)
	start := time.Now()
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(i) * time.Second / rate)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		genLag[i] = int64(time.Since(due))
		queue <- arrival{k: i % len(s.pool), due: due}
	}
	close(queue)
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil {
			return fmt.Errorf("open loop: %w", err)
		}
	}
	close(lat)
	var all []int64
	late := 0
	for d := range lat {
		all = append(all, d)
		if d > int64(limit) {
			late++
		}
	}
	sorted := sortedCopy(all)
	l.us("load.open_p50_us", time.Duration(quantile(sorted, 0.5)))
	l.us("load.open_p99_us", time.Duration(quantile(sorted, 0.99)))
	l["load.open_late_frac"] = float64(late) / float64(total)
	l.us("load.gen_lag_p99_us", time.Duration(quantile(sortedCopy(genLag), 0.99)))
	return nil
}

// probeEcho times a 64-byte envelope there and back between two TCP
// nodes on the loopback interface.
func probeEcho(l layers, quick bool) error {
	a, err := transport.ListenTCP("echo-a", "127.0.0.1:0", wireTransport)
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := transport.ListenTCP("echo-b", "127.0.0.1:0", wireTransport)
	if err != nil {
		return err
	}
	defer b.Close()
	a.AddPeer("echo-b", b.Addr())
	b.AddPeer("echo-a", a.Addr())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			env, err := b.Recv()
			if err != nil {
				return
			}
			if b.Send("echo-a", "echo", env.Payload) != nil {
				return
			}
		}
	}()
	payload := make([]byte, 64)
	var failure firstErr
	rtt := timeEach(probeN(2000, quick), func() {
		failure.keep(a.Send("echo-b", "echo", payload))
		_, err := a.RecvTimeout(2 * time.Second)
		failure.keep(err)
	})
	b.Close()
	<-done
	l.us("transport.tcp_echo_rtt_us", rtt)
	return failure.err
}

// probeDelegation times the extension of a delegation chain by one hop
// (issue the link, compose it with its parent chain, publish) on a
// coalition of the workload's shape.
func probeDelegation(l layers, quick bool) error {
	t, err := newDynTwin()
	if err != nil {
		return err
	}
	if err := t.a.Delegate("", "alice", "G_read", 1, []string{"read"}, t.srv); err != nil {
		return err
	}
	var failure firstErr
	l.us("delegation.compose_us", timeEach(probeN(50, quick), func() {
		failure.keep(t.a.Delegate("alice", "bob", "G_read", 0, []string{"read"}, t.srv))
	}))
	return failure.err
}

// probeFreshFollower times a second follower from hello to a served
// snapshot at the writer's head.
func (s *wire) probeFreshFollower(l layers) error {
	reg := obs.NewRegistry()
	f, err := daemon.NewFollower(daemon.FollowerConfig{Name: "bench-fresh", WriterAddr: s.wnode.Addr(),
		Metrics: reg, Transport: wireTransport, AuditRetention: daemonAuditRetention})
	if err != nil {
		return err
	}
	head := s.follower.Applier().Status().LastSeq
	t0 := time.Now()
	node, err := f.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- f.Serve(ctx, node) }()
	defer func() {
		cancel()
		node.Close() //nolint:errcheck // probe shutdown
		<-done
	}()
	deadline := t0.Add(20 * time.Second)
	for {
		if st := f.Applier().Status(); st.Ready && st.LastSeq >= head {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fresh follower never reached seq %d: %+v", head, f.Applier().Status())
		}
		time.Sleep(visiblePoll)
	}
	l.ms("replication.snapshot_install_ms", time.Since(t0))
	if n := reg.Counter(replication.MetricSnapshotsInstalled).Value(); n < 1 {
		return fmt.Errorf("fresh follower reports %d snapshot installs", n)
	}
	return nil
}

// probeWAL times the write-ahead log on a copy of the run's own
// records: re-open and replay, appends with and without fsync,
// compaction.
func (s *wire) probeWAL(l layers, o options) error {
	recs, _, err := wal.Dump(s.dir)
	if err != nil {
		return fmt.Errorf("read the run's wal: %w", err)
	}
	dir, err := os.MkdirTemp(filepath.Dir(s.dir), "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	for _, policy := range []struct {
		name   string
		opts   wal.Options
		n      int
		metric string
	}{
		{"sync", wal.Options{}, probeN(200, o.quick), "wal.append_sync_us"},
		{"nosync", wal.Options{NoSync: true}, probeN(2000, o.quick), "wal.append_nosync_us"},
	} {
		log, _, err := wal.Open(filepath.Join(dir, policy.name), policy.opts)
		if err != nil {
			return err
		}
		i := 0
		var failure firstErr
		l.us(policy.metric, timeEach(policy.n, func() {
			_, err := log.Append(recs[i%len(recs)], true)
			failure.keep(err)
			i++
		}))
		failure.keep(log.Close())
		if failure.err != nil {
			return failure.err
		}
	}
	// Replay and compaction run on a copy of the live directory, taken
	// while the writer is idle; the end-of-run gate replays the original.
	replica := filepath.Join(dir, "replica")
	if err := os.MkdirAll(replica, 0o755); err != nil {
		return err
	}
	for _, name := range []string{wal.LogName, wal.SnapshotName} {
		body, err := os.ReadFile(filepath.Join(s.dir, name))
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(replica, name), body, 0o644); err != nil {
			return err
		}
	}
	t0 := time.Now()
	_, log, err := replayDir(replica)
	if err != nil {
		return err
	}
	l.ms("wal.replay_ms", time.Since(t0))
	t0 = time.Now()
	if err := log.Compact(wal.CompactPolicy(-1)); err != nil {
		return err
	}
	l.ms("wal.compact_ms", time.Since(t0))
	return log.Close()
}

// probe fills the membership layers from the traced rounds' spans (the
// facade twin times re-key, re-anchor and request signing apart) and
// from the untraced rounds' stalls.
func (s *dynamics) probe(_ context.Context, l layers, r *run, o options) error {
	stats := r.tr.stats()
	authzCounts(l, s.reg)
	l["daemon.handle_read_us"] = p50Of(stats, "daemon.handle_read") / 1e3
	l["jointsig.cosign_request_us"] = p50Of(stats, "jointsig.cosign_request") / 1e3
	l["coalition.rekey_ms"] = (p50Of(stats, "coalition.rekey_join") + p50Of(stats, "coalition.rekey_leave")) / 2 / 1e6
	l["authz.reanchor_ms"] = p50Of(stats, "authz.reanchor") / 1e6
	l["coalition.certs_reissued_per_rekey"] = float64(s.twin.reissued)
	// The longest decision that overlapped a join or leave: the stall the
	// daemon's dynamics gate imposes on request traffic.
	var stall int64
	for _, rd := range r.timed {
		for _, a := range rd.admin {
			for i, begin := range rd.start {
				if begin < a.ack && begin+rd.lat[i] > a.start && rd.lat[i] > stall {
					stall = rd.lat[i]
				}
			}
		}
	}
	l.ms("daemon.authorize_stall_max_ms", time.Duration(stall))
	return probeIssuance(l, o.quick)
}
