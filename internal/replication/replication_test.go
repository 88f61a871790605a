package replication

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jointadmin"
	"jointadmin/internal/authz"
	"jointadmin/internal/obs"
	"jointadmin/internal/transport"
	"jointadmin/internal/wal"
)

// fakeNode records every frame an Applier or shipper sends, standing in
// for the TCP transport.
type fakeNode struct {
	mu   sync.Mutex
	sent []sentFrame
}

type sentFrame struct {
	to, kind string
	payload  []byte
}

func newFakeNode() *fakeNode { return &fakeNode{} }

func (n *fakeNode) Send(to, kind string, payload []byte) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.sent = append(n.sent, sentFrame{to: to, kind: kind, payload: append([]byte(nil), payload...)})
	return nil
}

// Reply records an answer as a frame sent to the envelope's sender.
func (n *fakeNode) Reply(env transport.Envelope, kind string, payload []byte) error {
	return n.Send(env.From, kind, payload)
}

// frames returns a copy of the frames sent so far (the shipper's stream
// goroutine keeps appending while tests read).
func (n *fakeNode) frames() []sentFrame {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]sentFrame(nil), n.sent...)
}

// kinds returns the kinds of all frames sent so far.
func (n *fakeNode) kinds() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, len(n.sent))
	for i, f := range n.sent {
		out[i] = f.kind
	}
	return out
}

// countKind counts sent frames of one kind.
func (n *fakeNode) countKind(kind string) int {
	c := 0
	for _, k := range n.kinds() {
		if k == kind {
			c++
		}
	}
	return c
}

// waitKind polls until at least want frames of kind were sent.
func (n *fakeNode) waitKind(t *testing.T, kind string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if n.countKind(kind) >= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("no %d frame(s) of kind %s within deadline (sent: %v)", want, kind, n.kinds())
}

// writerFixture is a real writer: an alliance with a journaling server,
// so tests ship genuine WAL records and genuine signed requests.
type writerFixture struct {
	a   *jointadmin.Alliance
	srv *jointadmin.Server
	log *wal.Log
}

var (
	allianceOnce sync.Once
	allianceVal  *jointadmin.Alliance
	allianceErr  error
)

// newWriter builds one test's writer: its own server journaling to its
// own WAL, so every test starts from an empty log. The alliance — its
// keys (512-bit, to keep the crypto under a second), users and groups —
// is built once and shared; groups a test grants on it stay granted, but
// reach no other test's server or WAL.
func newWriter(t *testing.T) *writerFixture {
	t.Helper()
	allianceOnce.Do(func() { allianceVal, allianceErr = buildAlliance() })
	if allianceErr != nil {
		t.Fatal(allianceErr)
	}
	a := allianceVal
	srv, err := a.NewServer("P")
	if err != nil {
		t.Fatal(err)
	}
	err = srv.CreateObject("O", map[string][]string{
		"G_read":  {"read"},
		"G_write": {"write"},
	}, []byte("genome v1"))
	if err != nil {
		t.Fatal(err)
	}
	l, _, err := wal.Open(t.TempDir(), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	if err := srv.Authz().SetJournal(l); err != nil {
		t.Fatal(err)
	}
	return &writerFixture{a: a, srv: srv, log: l}
}

func buildAlliance() (*jointadmin.Alliance, error) {
	a, err := jointadmin.NewAlliance("AA", []string{"D1", "D2"}, jointadmin.WithKeyBits(512))
	if err != nil {
		return nil, err
	}
	for _, u := range []string{"alice", "bob"} {
		d := "D1"
		if u == "bob" {
			d = "D2"
		}
		if err := a.EnrollUser(d, u); err != nil {
			return nil, err
		}
	}
	if err := a.GrantThreshold("G_read", 1, "alice", "bob"); err != nil {
		return nil, err
	}
	if err := a.GrantThreshold("G_write", 2, "alice", "bob"); err != nil {
		return nil, err
	}
	return a, nil
}

// mutate appends exactly one WAL record on the writer: grant a throwaway
// group (grants are coalition state, never journaled) and revoke it (one
// TypeRevocation record on the server).
func (w *writerFixture) mutate(t *testing.T, tag string) {
	t.Helper()
	g := "G_" + tag
	if err := w.a.GrantThreshold(g, 1, "alice"); err != nil {
		t.Fatal(err)
	}
	if err := w.a.Revoke(g, w.srv); err != nil {
		t.Fatal(err)
	}
}

// snapshotFrom captures the writer's current state as the wire snapshot
// message the shipper would send.
func snapshotFrom(t *testing.T, w *writerFixture) snapshotMsg {
	t.Helper()
	recs, frames, head, err := w.log.HistoryFrames(nil)
	if err != nil {
		t.Fatal(err)
	}
	objs, err := w.srv.Authz().Objects().Export()
	if err != nil {
		t.Fatal(err)
	}
	var lastSeq uint64
	if n := len(recs); n > 0 {
		lastSeq = recs[n-1].Seq
	}
	st := w.srv.Authz().Snapshot()
	return snapshotMsg{Frames: frames, LastSeq: lastSeq, Objects: objs,
		Head: head, Epoch: st.Epoch, Watermark: st.Watermark, Clock: w.a.Clock().Now()}
}

// recordsFrom captures the writer's tail past a cursor as the wire
// records message.
func recordsFrom(t *testing.T, w *writerFixture, after uint64) recordsMsg {
	t.Helper()
	_, frames, err := w.log.ReadFrom(after, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return recordsMsg{Frames: frames, Head: w.log.Seq(), Clock: w.a.Clock().Now()}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// applyErrors reads repl_apply_errors_total for one reason.
func applyErrors(reg *obs.Registry, reason string) int64 {
	return reg.Snapshot().CounterValue(fmt.Sprintf("%s{reason=%q}", metricApplyErrors, reason))
}

func newTestApplier(node node, reg *obs.Registry) *Applier {
	return NewApplier(node, ApplierOptions{
		Follower: "f1", Writer: "coalitiond",
		Metrics: reg,
	})
}

// TestApplierFreshFromSnapshot installs a replica from a snapshot handoff
// alone and serves a real signed request against it.
func TestApplierFreshFromSnapshot(t *testing.T) {
	w := newWriter(t)
	node := newFakeNode()
	reg := obs.NewRegistry()
	ap := newTestApplier(node, reg)

	snap := snapshotFrom(t, w)
	ap.Handle(kindSnapshot, mustJSON(t, snap))

	rep := ap.Replica()
	if rep == nil {
		t.Fatal("no replica after snapshot handoff")
	}
	st := ap.Status()
	if !st.Ready || st.LastSeq != snap.LastSeq || st.Snapshots != 1 {
		t.Fatalf("status after install: %+v", st)
	}
	wst := w.srv.Authz().Snapshot()
	if st.Epoch != wst.Epoch || st.Watermark != wst.Watermark {
		t.Fatalf("replica at epoch %d watermark %d, writer at %d/%d",
			st.Epoch, st.Watermark, wst.Epoch, wst.Watermark)
	}
	// The replica holds the object and approves a writer-signed request.
	if _, err := rep.Objects.Read("O"); err != nil {
		t.Fatalf("replica object store missing O: %v", err)
	}
	req, err := w.a.NewRequest(jointadmin.RequestSpec{
		Group: "G_read", Op: "read", Object: "O", Signers: []string{"alice"}})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := rep.Srv.Authorize(context.Background(), req)
	if err != nil {
		t.Fatalf("replica denied a valid request: %v", err)
	}
	if string(dec.Data) != "genome v1" {
		t.Fatalf("replica read wrong content: %q", dec.Data)
	}
	if reg.Snapshot().CounterValue(MetricSnapshotsInstalled) != 1 {
		t.Fatal("snapshot install not counted")
	}
}

// TestApplierPartialTail advances an installed replica with a shipped WAL
// tail: a revocation performed on the writer after the handoff becomes
// visible (denied) on the follower once the tail applies.
func TestApplierPartialTail(t *testing.T) {
	w := newWriter(t)
	node := newFakeNode()
	reg := obs.NewRegistry()
	ap := newTestApplier(node, reg)

	if err := w.a.GrantThreshold("G_tail", 1, "alice"); err != nil {
		t.Fatal(err)
	}
	ap.Handle(kindSnapshot, mustJSON(t, snapshotFrom(t, w)))
	cursor := ap.Status().LastSeq

	// Mutate the writer past the handoff: revoke the group, then ship
	// only the tail.
	if err := w.a.Revoke("G_tail", w.srv); err != nil {
		t.Fatal(err)
	}
	ap.Handle(kindRecords, mustJSON(t, recordsFrom(t, w, cursor)))

	st := ap.Status()
	if st.LastSeq != w.log.Seq() || st.Lag != 0 {
		t.Fatalf("follower at seq %d lag %d, writer head %d", st.LastSeq, st.Lag, w.log.Seq())
	}
	wst := w.srv.Authz().Snapshot()
	if st.Epoch != wst.Epoch || st.Watermark != wst.Watermark {
		t.Fatalf("after tail: follower %d/%d, writer %d/%d", st.Epoch, st.Watermark, wst.Epoch, wst.Watermark)
	}
	// The revocation shipped in the tail is enforced here.
	req, err := w.a.NewRequest(jointadmin.RequestSpec{
		Group: "G_tail", Op: "read", Object: "O", Signers: []string{"alice"}})
	if err == nil {
		if _, aerr := ap.Replica().Srv.Authorize(context.Background(), req); aerr == nil {
			t.Fatal("revoked group still authorized on follower")
		}
	}
}

// TestApplierRestartMidStream models a follower restart: a fresh applier
// has no replica, rejects a tail batch (hello full=true), and converges
// again after the snapshot handoff the hello provokes.
func TestApplierRestartMidStream(t *testing.T) {
	w := newWriter(t)
	node := newFakeNode()
	reg := obs.NewRegistry()
	ap := newTestApplier(node, reg)

	// Tail records arrive first (the writer still thinks the old
	// incarnation's cursor is live): the fresh applier must not apply
	// them — it lacks the object store — and must ask for a full handoff.
	ap.Handle(kindRecords, mustJSON(t, recordsFrom(t, w, 0)))
	if ap.Replica() != nil {
		t.Fatal("replica built from tail records alone")
	}
	if got := node.countKind(kindHello); got != 1 {
		t.Fatalf("expected 1 recovery hello, got %d", got)
	}
	var h helloMsg
	sent := node.frames()
	if err := json.Unmarshal(sent[len(sent)-1].payload, &h); err != nil {
		t.Fatal(err)
	}
	if !h.Full {
		t.Fatal("recovery hello after restart should request a full snapshot")
	}
	// The handoff the hello provokes restores service.
	ap.Handle(kindSnapshot, mustJSON(t, snapshotFrom(t, w)))
	if ap.Replica() == nil || !ap.Status().Ready {
		t.Fatal("replica not restored by snapshot handoff")
	}
	if ap.Status().LastSeq != w.log.Seq() {
		t.Fatalf("restarted follower at %d, writer at %d", ap.Status().LastSeq, w.log.Seq())
	}
}

// TestApplierPacesFailedInstall: a snapshot that decodes but cannot be
// installed (a belief record ahead of any anchors record) is counted and
// named in Status.LastError, and asks for nothing at once — the writer
// would ship the same history straight back. The next status frame asks
// again, for a full snapshot.
func TestApplierPacesFailedInstall(t *testing.T) {
	w := newWriter(t)
	w.mutate(t, "uninstallable")
	beliefs, frames, head, err := w.log.HistoryFrames(func(recs []wal.Record) []wal.Record {
		var beliefs []wal.Record
		for _, r := range recs {
			if r.Type != wal.TypeAnchors {
				beliefs = append(beliefs, r)
			}
		}
		return beliefs
	})
	if err != nil {
		t.Fatal(err)
	}
	bad := snapshotFrom(t, w)
	bad.Frames, bad.LastSeq = frames, beliefs[len(beliefs)-1].Seq

	node := newFakeNode()
	reg := obs.NewRegistry()
	ap := newTestApplier(node, reg)
	ap.Handle(kindSnapshot, mustJSON(t, bad))
	if ap.Replica() != nil {
		t.Fatal("a history without anchors installed a replica")
	}
	if got := node.countKind(kindHello); got != 0 {
		t.Fatalf("the failed install sent %d hello(s) at once, want none before the next status frame", got)
	}
	if got := applyErrors(reg, reasonInstall); got != 1 {
		t.Fatalf("%s{reason=%q} = %d, want 1", metricApplyErrors, reasonInstall, got)
	}
	if st := ap.Status(); st.Ready || !strings.Contains(st.LastError, "install snapshot") || !strings.Contains(st.LastError, "anchors") {
		t.Fatalf("status after the failed install = %+v, want not ready and LastError naming the install failure", st)
	}

	ap.Handle(kindStatus, mustJSON(t, statusMsg{Head: head, Clock: w.a.Clock().Now()}))
	if got := node.countKind(kindHello); got != 1 {
		t.Fatalf("hellos after the status frame = %d, want 1", got)
	}
	var h helloMsg
	sent := node.frames()
	if err := json.Unmarshal(sent[len(sent)-1].payload, &h); err != nil {
		t.Fatal(err)
	}
	if !h.Full {
		t.Fatal("a follower without a replica must ask for a full snapshot")
	}
}

// TestApplierCorruptFrameFailsClosed flips one byte in a shipped batch:
// the applier must reject the whole frame, keep its replica state, count
// the error and resync — never apply a partially trusted record.
func TestApplierCorruptFrameFailsClosed(t *testing.T) {
	w := newWriter(t)
	node := newFakeNode()
	reg := obs.NewRegistry()
	ap := newTestApplier(node, reg)

	ap.Handle(kindSnapshot, mustJSON(t, snapshotFrom(t, w)))
	cursor := ap.Status().LastSeq

	w.mutate(t, "corrupt")
	msg := recordsFrom(t, w, cursor)
	msg.Frames[len(msg.Frames)/2] ^= 0xff
	helloBefore := node.countKind(kindHello)
	ap.Handle(kindRecords, mustJSON(t, msg))

	if got := ap.Status().LastSeq; got != cursor {
		t.Fatalf("corrupt frame advanced cursor: %d -> %d", cursor, got)
	}
	if applyErrors(reg, reasonCorrupt) == 0 {
		t.Fatal("corrupt frame not counted as apply error")
	}
	if node.countKind(kindHello) != helloBefore+1 {
		t.Fatal("corrupt frame did not trigger a resync hello")
	}
	// The intact retransmission (what the resync provokes) applies fine.
	ap.Handle(kindRecords, mustJSON(t, recordsFrom(t, w, cursor)))
	if ap.Status().LastSeq != w.log.Seq() {
		t.Fatal("retransmission after corruption did not apply")
	}
}

// TestApplierGapAndDuplicate pins the sequence discipline: duplicated
// batches are shed as stale, a gap forces a resync instead of a silent
// skip.
func TestApplierGapAndDuplicate(t *testing.T) {
	w := newWriter(t)
	node := newFakeNode()
	reg := obs.NewRegistry()
	ap := newTestApplier(node, reg)

	ap.Handle(kindSnapshot, mustJSON(t, snapshotFrom(t, w)))
	cursor := ap.Status().LastSeq
	w.mutate(t, "gap")
	tail := recordsFrom(t, w, cursor)
	ap.Handle(kindRecords, mustJSON(t, tail))
	applied := ap.Status().LastSeq

	// Duplicate delivery: shed, not re-applied.
	ap.Handle(kindRecords, mustJSON(t, tail))
	if ap.Status().LastSeq != applied {
		t.Fatal("duplicate batch changed the cursor")
	}
	if reg.Snapshot().CounterValue(metricStaleFrames) == 0 {
		t.Fatal("duplicate batch not counted stale")
	}

	// Gap: ship records starting past lastSeq+1.
	w.mutate(t, "gap2a")
	w.mutate(t, "gap2b")
	gap := recordsFrom(t, w, applied+1) // skips the record at applied+1
	helloBefore := node.countKind(kindHello)
	errsBefore := applyErrors(reg, reasonGap)
	ap.Handle(kindRecords, mustJSON(t, gap))
	if ap.Status().LastSeq != applied {
		t.Fatal("gapped batch applied")
	}
	if node.countKind(kindHello) != helloBefore+1 {
		t.Fatal("gap did not trigger a resync hello")
	}
	if applyErrors(reg, reasonGap) != errsBefore+1 {
		t.Fatal("gap not counted as apply error")
	}
}

// TestLagMetricsMonotoneAndReset drives the lag gauge through a fall-
// behind / catch-up cycle: status heartbeats with a rising head push
// repl_lag_records monotonically up; applying the missing records resets
// it to zero (and repl_last_seq never regresses).
func TestLagMetricsMonotoneAndReset(t *testing.T) {
	w := newWriter(t)
	node := newFakeNode()
	reg := obs.NewRegistry()
	ap := newTestApplier(node, reg)

	ap.Handle(kindSnapshot, mustJSON(t, snapshotFrom(t, w)))
	base := ap.Status().LastSeq
	if got := reg.Gauge(metricLagRecords).Value(); got != 0 {
		t.Fatalf("lag after full install = %d, want 0", got)
	}

	var prevLag int64
	for i := uint64(1); i <= 3; i++ {
		ap.Handle(kindStatus, mustJSON(t, statusMsg{Head: base + i}))
		lag := reg.Gauge(metricLagRecords).Value()
		if lag < prevLag {
			t.Fatalf("lag regressed while falling behind: %d after %d", lag, prevLag)
		}
		if lag != int64(i) {
			t.Fatalf("lag after head %d = %d, want %d", base+i, lag, i)
		}
		prevLag = lag
	}
	// A delayed heartbeat with an older head must not shrink the lag.
	ap.Handle(kindStatus, mustJSON(t, statusMsg{Head: base + 1}))
	if got := reg.Gauge(metricLagRecords).Value(); got != prevLag {
		t.Fatalf("stale heartbeat moved lag: %d -> %d", prevLag, got)
	}

	// Catch up for real: make the advertised heads real, then ship the
	// tail.
	lastSeqBefore := reg.Gauge(metricLastSeq).Value()
	for i := 0; w.log.Seq() < base+3; i++ {
		w.mutate(t, fmt.Sprintf("lag%d", i))
	}
	ap.Handle(kindRecords, mustJSON(t, recordsFrom(t, w, base)))
	if got := reg.Gauge(metricLagRecords).Value(); got != 0 {
		t.Fatalf("lag after catch-up = %d, want 0", got)
	}
	if got := reg.Gauge(metricLastSeq).Value(); got < lastSeqBefore {
		t.Fatalf("repl_last_seq regressed: %d -> %d", lastSeqBefore, got)
	}
	if got := reg.Gauge(metricLastSeq).Value(); uint64(got) != w.log.Seq() {
		t.Fatalf("repl_last_seq = %d, writer head %d", got, w.log.Seq())
	}
}

// TestShipperSnapshotHandoffAndTail drives the writer side with a fake
// node: a full hello gets a snapshot whose LastSeq matches the log head,
// an up-to-date follower gets tail records on append, and idle streams
// heartbeat.
func TestShipperSnapshotHandoffAndTail(t *testing.T) {
	w := newWriter(t)
	node := newFakeNode()
	reg := obs.NewRegistry()
	sh := NewShipper(w.log, node, ShipperOptions{
		Batch: 8, Heartbeat: 50 * time.Millisecond,
		State: func() (uint64, uint64) {
			st := w.srv.Authz().Snapshot()
			return st.Epoch, st.Watermark
		},
		Objects: w.srv.Authz().Objects().Export,
		Metrics: reg,
		Logf:    t.Logf,
	})
	defer sh.Close()

	sh.Handle(transport.Envelope{From: "f1", Kind: kindHello, Payload: mustJSON(t, helloMsg{Follower: "f1", Full: true})})
	node.waitKind(t, kindSnapshot, 1)
	var snap snapshotMsg
	for _, f := range node.frames() {
		if f.kind == kindSnapshot {
			if err := json.Unmarshal(f.payload, &snap); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	if snap.LastSeq == 0 || snap.LastSeq > w.log.Seq() {
		t.Fatalf("snapshot LastSeq %d vs writer head %d", snap.LastSeq, w.log.Seq())
	}
	recs, _, torn, corrupt := wal.Scan(snap.Frames)
	if corrupt != nil || torn != "" {
		t.Fatalf("shipped snapshot frames damaged: %v %q", corrupt, torn)
	}
	if recs[len(recs)-1].Seq != snap.LastSeq {
		t.Fatalf("snapshot boundary: frames end at %d, declared %d", recs[len(recs)-1].Seq, snap.LastSeq)
	}
	hasObject := false
	for _, o := range snap.Objects {
		if o.Name == "O" {
			hasObject = true
		}
	}
	if !hasObject {
		t.Fatal("snapshot handoff missing object O")
	}

	// A caught-up stream heartbeats...
	node.waitKind(t, kindStatus, 1)
	// ...and ships new appends as tail records from exactly LastSeq+1.
	w.mutate(t, "ship")
	node.waitKind(t, kindRecords, 1)
	var rm recordsMsg
	for _, f := range node.frames() {
		if f.kind == kindRecords {
			if err := json.Unmarshal(f.payload, &rm); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	tail, _, _, _ := wal.Scan(rm.Frames)
	if len(tail) == 0 || tail[0].Seq != snap.LastSeq+1 {
		t.Fatalf("first shipped tail seq = %v, want %d", tail, snap.LastSeq+1)
	}
	if reg.Snapshot().CounterValue(metricSnapshotsShipped+`{follower="f1"}`) == 0 {
		t.Fatal("snapshot ship not counted")
	}
	if reg.Gauge(metricFollowers).Value() != 1 {
		t.Fatal("follower stream not gauged")
	}
}

// TestIsReplication pins the routing predicate the daemon serve loops
// rely on.
func TestIsReplication(t *testing.T) {
	for _, k := range []string{kindHello, kindSnapshot, kindRecords, kindStatus} {
		if !IsReplication(k) {
			t.Fatalf("IsReplication(%q) = false", k)
		}
		if !strings.HasPrefix(k, "repl.") {
			t.Fatalf("kind %q outside the repl. namespace", k)
		}
	}
	for _, k := range []string{"cmd", "reply", "cmd@127.0.0.1:1", ""} {
		if IsReplication(k) {
			t.Fatalf("IsReplication(%q) = true", k)
		}
	}
}

// cacheCounts sums the replica's verified-certificate cache counters over
// their kind labels.
func cacheCounts(reg *obs.Registry) (hits, misses int64) {
	for _, c := range reg.Snapshot().Counters {
		switch {
		case strings.HasPrefix(c.Name, authz.MetricCacheHits):
			hits += c.Value
		case strings.HasPrefix(c.Name, authz.MetricCacheMisses):
			misses += c.Value
		}
	}
	return hits, misses
}

// parityRuns numbers the runs of TestFollowerKeepsCacheAcrossShippedMutations.
var parityRuns atomic.Int64

// TestFollowerKeepsCacheAcrossShippedMutations is the follower side of
// the epoch cache: a follower replays shipped records through the same
// mutate as the writer, so after a shipped link and a shipped revocation
// its next decision for an untouched pre-signed request is a cache hit on
// the residual path — not a re-verification — while the revoked victim is
// denied at the writer's watermark.
func TestFollowerKeepsCacheAcrossShippedMutations(t *testing.T) {
	w := newWriter(t)
	reg := obs.NewRegistry()
	ap := newTestApplier(newFakeNode(), reg)
	ctx := context.Background()
	// The alliance is shared across runs in one process (-count): each run
	// grants, links and revokes groups of its own.
	run := parityRuns.Add(1)
	victimGroup := fmt.Sprintf("G_parity_victim%d", run)
	subGroup := fmt.Sprintf("G_parity_sub%d", run)

	if err := w.a.GrantThreshold(victimGroup, 1, "bob"); err != nil {
		t.Fatal(err)
	}
	if err := w.a.LinkGroups(victimGroup, "G_read", w.srv); err != nil {
		t.Fatal(err)
	}
	untouched, err := w.a.NewRequest(jointadmin.RequestSpec{
		Group: "G_read", Op: "read", Object: "O", Signers: []string{"alice"}})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := w.a.NewRequest(jointadmin.RequestSpec{
		Group: victimGroup, Op: "read", Object: "O", Signers: []string{"bob"}})
	if err != nil {
		t.Fatal(err)
	}

	ap.Handle(kindSnapshot, mustJSON(t, snapshotFrom(t, w)))
	follower := ap.Replica().Srv
	for _, req := range []authz.AccessRequest{untouched, victim} {
		if _, err := follower.Authorize(ctx, req); err != nil {
			t.Fatalf("follower denied a valid request after the handoff: %v", err)
		}
	}

	// ship applies one writer-side mutation and ships its tail; the
	// follower must then decide the untouched request from its cache.
	ship := func(verb string, mutate func() error) {
		t.Helper()
		cursor := ap.Status().LastSeq
		if err := mutate(); err != nil {
			t.Fatal(err)
		}
		ap.Handle(kindRecords, mustJSON(t, recordsFrom(t, w, cursor)))
		if ap.Replica().Srv != follower {
			t.Fatalf("shipped %s replaced the replica", verb)
		}
		hits, misses := cacheCounts(reg)
		residual := reg.Snapshot().CounterValue(authz.MetricResidualHits)
		if _, err := follower.Authorize(ctx, untouched); err != nil {
			t.Fatalf("untouched request denied after shipped %s: %v", verb, err)
		}
		gotHits, gotMisses := cacheCounts(reg)
		if gotHits <= hits || gotMisses != misses {
			t.Fatalf("after shipped %s the follower re-verified an untouched request: hits %d -> %d, misses %d -> %d",
				verb, hits, gotHits, misses, gotMisses)
		}
		snap := reg.Snapshot()
		if got, falls := snap.CounterValue(authz.MetricResidualHits), snap.CounterValue(authz.MetricResidualFallbacks); got != residual+1 || falls != 0 {
			t.Fatalf("after shipped %s the untouched request was not decided residually (hits %d -> %d, %d fallbacks)", verb, residual, got, falls)
		}
	}
	ship("link", func() error { return w.a.LinkGroups(subGroup, "G_read", w.srv) })
	ship("revoke", func() error { return w.a.Revoke(victimGroup, w.srv) })

	st, wst := ap.Status(), w.srv.Authz().Snapshot()
	if st.Epoch != wst.Epoch || st.Watermark != wst.Watermark {
		t.Fatalf("follower at %d/%d, writer at %d/%d", st.Epoch, st.Watermark, wst.Epoch, wst.Watermark)
	}
	fdec, ferr := follower.Authorize(ctx, victim)
	wdec, werr := w.srv.Authz().Authorize(ctx, victim)
	if !errors.Is(ferr, authz.ErrDenied) || !errors.Is(werr, authz.ErrDenied) {
		t.Fatalf("revoked victim not denied at watermark %d: follower %v, writer %v", st.Watermark, ferr, werr)
	}
	if fdec.DeniedStep != wdec.DeniedStep {
		t.Fatalf("victim denied at %s on the follower, %s on the writer", fdec.DeniedStep, wdec.DeniedStep)
	}
}

// TestShipperFollowsLatestHelloConnection runs the shipper over TCP: a
// follower reconnects on a new connection (same name, fresh dial-only
// node) and says hello again; from then on every frame goes to the new
// connection, none to the old, and the writer dials nothing.
func TestShipperFollowsLatestHelloConnection(t *testing.T) {
	w := newWriter(t)
	wreg := obs.NewRegistry()
	wnode, err := transport.ListenTCP("coalitiond", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer wnode.Close()
	wnode.Instrument(wreg)
	sh := NewShipper(w.log, wnode, ShipperOptions{Heartbeat: 20 * time.Millisecond,
		Objects: w.srv.Authz().Objects().Export, Logf: t.Logf})
	defer sh.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		for {
			env, err := wnode.Recv()
			if err != nil {
				return
			}
			sh.Handle(env)
		}
	}()
	defer func() { wnode.Close(); <-served }()

	follower := func() *transport.TCPNode {
		n := transport.DialTCP("f1")
		t.Cleanup(func() { n.Close() })
		n.AddPeer("coalitiond", wnode.Addr())
		return n
	}
	hello := func(n *transport.TCPNode, h helloMsg) {
		t.Helper()
		if err := n.Send("coalitiond", kindHello, mustJSON(t, h)); err != nil {
			t.Fatal(err)
		}
	}
	// await receives on n until a frame of kind arrives, returning it.
	await := func(n *transport.TCPNode, kind string) transport.Envelope {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			env, err := n.RecvTimeout(time.Until(deadline))
			if err != nil {
				break
			}
			if env.Kind == kind {
				return env
			}
		}
		t.Fatalf("no %s frame", kind)
		return transport.Envelope{}
	}

	old := follower()
	hello(old, helloMsg{Follower: "f1", Full: true})
	var snap snapshotMsg
	if err := json.Unmarshal(await(old, kindSnapshot).Payload, &snap); err != nil {
		t.Fatal(err)
	}

	fresh := follower()
	hello(fresh, helloMsg{Follower: "f1", LastSeq: snap.LastSeq})
	await(fresh, kindStatus) // the stream has taken up the new hello
	w.mutate(t, fmt.Sprintf("reconnect%d", snap.LastSeq))
	var rm recordsMsg
	if err := json.Unmarshal(await(fresh, kindRecords).Payload, &rm); err != nil {
		t.Fatal(err)
	}
	if tail, _, _, _ := wal.Scan(rm.Frames); len(tail) == 0 || tail[0].Seq != snap.LastSeq+1 {
		t.Fatalf("records on the new connection start at %v, want seq %d", tail, snap.LastSeq+1)
	}
	for {
		env, err := old.RecvTimeout(100 * time.Millisecond)
		if err != nil {
			break
		}
		if env.Kind == kindRecords {
			t.Fatal("records shipped on the superseded connection")
		}
	}
	for _, m := range wreg.Snapshot().Gauges {
		if strings.HasPrefix(m.Name, transport.MetricPeerConns) {
			t.Errorf("writer dialed a connection: %s = %d", m.Name, m.Value)
		}
	}
}

// TestShipperBoundsTailBatchBytes: 24 audit records of 1 MiB each land
// behind a follower's cursor. One batch of them would be a frame of
// 32 MiB once base64-encoded, over the transport's 16 MiB limit, so the
// shipper trims each batch to tailBatchBytes of encoded frames, and the
// follower reaches the head within twenty heartbeats, a bound with room
// for a loaded machine: unloaded it takes under two. (The follower says
// hello after the appends, so the stream reads all 24 at once instead
// of as they land.)
func TestShipperBoundsTailBatchBytes(t *testing.T) {
	w := newWriter(t)
	const heartbeat = time.Second
	wnode, err := transport.ListenTCP("coalitiond", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer wnode.Close()
	sh := NewShipper(w.log, wnode, ShipperOptions{Heartbeat: heartbeat,
		Objects: w.srv.Authz().Objects().Export, Logf: t.Logf})
	defer sh.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		for {
			env, err := wnode.Recv()
			if err != nil {
				return
			}
			sh.Handle(env)
		}
	}()
	defer func() { wnode.Close(); <-served }()

	got := w.log.Seq()
	for i := range 24 {
		body := []byte(`"` + strings.Repeat(string(rune('a'+i)), 1<<20) + `"`) // a JSON string, as record bodies are JSON
		if _, err := w.log.Append(wal.Record{Type: wal.TypeAudit, Body: body}, false); err != nil {
			t.Fatal(err)
		}
	}
	f := transport.DialTCP("f1")
	defer f.Close()
	f.AddPeer("coalitiond", wnode.Addr())
	if err := f.Send("coalitiond", kindHello, mustJSON(t, helloMsg{Follower: "f1", LastSeq: got})); err != nil {
		t.Fatal(err)
	}
	head := w.log.Seq()
	for deadline := time.Now().Add(20 * heartbeat); got < head; {
		env, err := f.RecvTimeout(time.Until(deadline))
		if err != nil {
			t.Fatalf("follower at seq %d of %d after 20 heartbeats: %v", got, head, err)
		}
		if env.Kind != kindRecords {
			continue
		}
		var rm recordsMsg
		if err := json.Unmarshal(env.Payload, &rm); err != nil {
			t.Fatal(err)
		}
		recs, _, torn, corrupt := wal.Scan(rm.Frames)
		if corrupt != nil || torn != "" || len(recs) == 0 || recs[0].Seq != got+1 {
			t.Fatalf("tail batch after seq %d: %d records, torn %q, corrupt %v", got, len(recs), torn, corrupt)
		}
		got = recs[len(recs)-1].Seq
	}
}
