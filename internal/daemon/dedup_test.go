package daemon

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"jointadmin/internal/obs"
	"jointadmin/internal/transport"
	"jointadmin/internal/wirefmt"
)

// allReplies snapshots the payloads fakeNode sent to one recipient.
func (f *fakeNode) allReplies(to string) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.replies[to]...)
}

// TestDedupCacheLeaderAndReplay: the first begin per key leads; later
// begins receive the leader's recorded body once finish releases them.
func TestDedupCacheLeaderAndReplay(t *testing.T) {
	c := newDedupCache(8)
	e1, leader := c.begin("k1")
	if !leader {
		t.Fatal("first begin must lead")
	}
	e2, leader := c.begin("k1")
	if leader {
		t.Fatal("second begin must not lead")
	}
	if e1 != e2 {
		t.Fatal("duplicate begin must return the leader's entry")
	}
	done := make(chan []byte, 1)
	go func() {
		<-e2.done
		done <- e2.body
	}()
	if n := c.finish("k1", []byte("reply-1")); n != 0 {
		t.Fatalf("evictions = %d, want 0", n)
	}
	if got := string(<-done); got != "reply-1" {
		t.Fatalf("replayed body = %q, want reply-1", got)
	}
	// A later duplicate (after completion) still replays.
	e3, leader := c.begin("k1")
	if leader || string(e3.body) != "reply-1" {
		t.Fatalf("post-completion begin: leader=%v body=%q", leader, e3.body)
	}
}

// TestDedupCacheEviction: the cache stays bounded at cap completed
// entries, evicting oldest-first; evicted IDs become leaders again
// (their retries would re-execute — the documented trade-off of a
// bounded cache).
func TestDedupCacheEviction(t *testing.T) {
	c := newDedupCache(3)
	var evicted int64
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		if _, leader := c.begin(key); !leader {
			t.Fatalf("begin %s: not leader", key)
		}
		evicted += c.finish(key, []byte(key))
	}
	if evicted != 2 {
		t.Fatalf("evictions = %d, want 2", evicted)
	}
	if got := c.size(); got != 3 {
		t.Fatalf("size = %d, want 3", got)
	}
	// k0 and k1 aged out: their IDs lead again. k4 is still cached.
	if _, leader := c.begin("k0"); !leader {
		t.Fatal("evicted key must lead again")
	}
	if e, leader := c.begin("k4"); leader || string(e.body) != "k4" {
		t.Fatalf("retained key: leader=%v body=%q", leader, e.body)
	}
}

// TestDedupCacheInflightNotEvicted: in-flight entries are pinned — a
// burst of completions beyond cap never evicts an entry whose leader has
// not finished (waiters would hang forever on a channel nobody closes).
func TestDedupCacheInflightNotEvicted(t *testing.T) {
	c := newDedupCache(2)
	c.begin("inflight") // leader never finishes during the burst
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		c.begin(key)
		c.finish(key, nil)
	}
	if _, leader := c.begin("inflight"); leader {
		t.Fatal("in-flight entry was evicted by completed-entry pressure")
	}
	c.finish("inflight", []byte("late"))
	if e, leader := c.begin("inflight"); leader || string(e.body) != "late" {
		t.Fatalf("after finish: leader=%v body=%q", leader, e.body)
	}
}

// TestPipelineDedupReplaysDuplicates: two copies of the same command
// (same sender, same ID) through the serve pipeline execute the handler
// once; the duplicate is answered from the cache and counted in
// daemon_dedup_replays_total. A third copy under a different ID executes
// again — dedup is ID-keyed, not payload-keyed.
func TestPipelineDedupReplaysDuplicates(t *testing.T) {
	reg := obs.NewRegistry()
	var executions atomic.Int64
	p := newPipeline(pipelineConfig{
		Workers: 2,
		Metrics: reg,
		Handler: func(ctx context.Context, cmd Command) Reply {
			executions.Add(1)
			return Reply{OK: true, Detail: "ran " + cmd.ID}
		},
	})
	node := newFakeNode(nil)
	body := EncodeCommand(Command{ID: "dup-1", Cmd: "noop"})
	other := EncodeCommand(Command{ID: "dup-2", Cmd: "noop"})
	node.envs <- transport.Envelope{From: "cli", Kind: "cmd", Payload: body}
	node.envs <- transport.Envelope{From: "cli", Kind: "cmd", Payload: body}
	node.envs <- transport.Envelope{From: "cli", Kind: "cmd", Payload: other}
	close(node.envs)
	if err := p.Serve(context.Background(), node); err != nil {
		t.Fatal(err)
	}
	if got := executions.Load(); got != 2 {
		t.Fatalf("handler executions = %d, want 2 (one per distinct ID)", got)
	}
	node.mu.Lock()
	replies := len(node.replies["cli"])
	node.mu.Unlock()
	if replies != 3 {
		t.Fatalf("replies sent = %d, want 3 (every copy answered)", replies)
	}
	if got := reg.Counter(MetricDedupReplays).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricDedupReplays, got)
	}
	for _, raw := range node.allReplies("cli") {
		rep, err := DecodeReply([]byte(raw))
		if err != nil {
			t.Fatal(err)
		}
		if rep.ID == "" {
			t.Fatalf("reply without ID echo: %q", raw)
		}
	}
}

// TestPipelineConcurrentDuplicateWaitsForLeader: a duplicate arriving
// while the original is still executing parks on the leader's entry and
// replays its reply — never a second execution, never an empty answer.
func TestPipelineConcurrentDuplicateWaitsForLeader(t *testing.T) {
	reg := obs.NewRegistry()
	var executions atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	p := newPipeline(pipelineConfig{
		Workers: 2,
		Metrics: reg,
		Handler: func(ctx context.Context, cmd Command) Reply {
			executions.Add(1)
			once.Do(func() { close(started) })
			<-release
			return Reply{OK: true, Detail: "slow"}
		},
	})
	node := newFakeNode(nil)
	body := EncodeCommand(Command{ID: "slow-1", Cmd: "noop"})
	serveDone := make(chan error, 1)
	go func() { serveDone <- p.Serve(context.Background(), node) }()
	node.envs <- transport.Envelope{From: "cli", Kind: "cmd", Payload: body}
	<-started // leader is executing
	node.envs <- transport.Envelope{From: "cli", Kind: "cmd", Payload: body}
	close(release)
	close(node.envs)
	if err := <-serveDone; err != nil {
		t.Fatal(err)
	}
	if got := executions.Load(); got != 1 {
		t.Fatalf("handler executions = %d, want 1", got)
	}
	if got := len(node.allReplies("cli")); got != 2 {
		t.Fatalf("replies = %d, want 2", got)
	}
	if got := reg.Counter(MetricDedupReplays).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricDedupReplays, got)
	}
}

// TestPipelineNoIDBypassesDedup: commands without an ID (legacy clients)
// re-execute on every copy, as before the dedup cache existed.
func TestPipelineNoIDBypassesDedup(t *testing.T) {
	var executions atomic.Int64
	p := newPipeline(pipelineConfig{
		Workers: 1,
		Handler: func(ctx context.Context, cmd Command) Reply {
			executions.Add(1)
			return Reply{OK: true}
		},
	})
	node := newFakeNode(nil)
	body := EncodeCommand(Command{Cmd: "noop"})
	node.envs <- transport.Envelope{From: "cli", Kind: "cmd", Payload: body}
	node.envs <- transport.Envelope{From: "cli", Kind: "cmd", Payload: body}
	close(node.envs)
	if err := p.Serve(context.Background(), node); err != nil {
		t.Fatal(err)
	}
	if got := executions.Load(); got != 2 {
		t.Fatalf("handler executions = %d, want 2 (no ID, no dedup)", got)
	}
}

// wireFrame builds a transport frame by hand, from the layout the
// transport documents (4-byte big-endian body length; version byte; From,
// To, Kind, Payload, each behind its uvarint length) — independently of
// the transport's own encoder.
func wireFrame(from, to, kind string, payload []byte) []byte {
	body := []byte{wirefmt.Version}
	for _, field := range [][]byte{[]byte(from), []byte(to), []byte(kind), payload} {
		body = binary.AppendUvarint(body, uint64(len(field)))
		body = append(body, field...)
	}
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// readWireFrame reads one transport frame off a raw connection, by the
// same documented layout, and returns its Payload.
func readWireFrame(conn net.Conn) ([]byte, error) {
	conn.SetReadDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // a test deadline
	var hdr [4]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return nil, err
	}
	body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(conn, body); err != nil {
		return nil, err
	}
	r := wirefmt.NewReader(body)
	for range 3 { // From, To, Kind
		r.Bytes()
	}
	payload := r.Bytes()
	return payload, r.Finish()
}

// TestPipelineDedupDuplicateSplitAcrossSegments: over real TCP, the
// duplicate of a command frame arrives in two segments — the cut inside
// the length header, inside a field, and one byte before the end — while
// the node's buffered reader already holds the first part. The duplicate
// must reassemble, replay the recorded reply and not re-execute.
func TestPipelineDedupDuplicateSplitAcrossSegments(t *testing.T) {
	reg := obs.NewRegistry()
	var executions atomic.Int64
	p := newPipeline(pipelineConfig{
		Metrics: reg,
		Handler: func(ctx context.Context, cmd Command) Reply {
			executions.Add(1)
			return Reply{OK: true, Detail: "ran " + cmd.ID}
		},
	})
	srv, err := transport.ListenTCP("srv", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	served := make(chan error, 1)
	go func() { served <- p.Serve(context.Background(), srv) }()

	// Commands go out, and replies come back, over a raw connection, so
	// the test decides where the segments end.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	recvReply := func(step string) Reply {
		t.Helper()
		payload, err := readWireFrame(conn)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		rep, err := DecodeReply(payload)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		return rep
	}

	frameLen := len(wireFrame("cli", "srv", "cmd", EncodeCommand(Command{ID: "split-0", Cmd: "noop"})))
	for i, cut := range []int{2, 9, frameLen - 1} {
		id := fmt.Sprintf("split-%d", i)
		frame := wireFrame("cli", "srv", "cmd", EncodeCommand(Command{ID: id, Cmd: "noop"}))
		// Segment one: the command and the head of its duplicate.
		if _, err := conn.Write(append(bytes.Clone(frame), frame[:cut]...)); err != nil {
			t.Fatal(err)
		}
		first := recvReply(id + " original")
		// The original is answered, so the reader is parked inside the
		// duplicate. Segment two: the rest of it.
		if _, err := conn.Write(frame[cut:]); err != nil {
			t.Fatal(err)
		}
		second := recvReply(id + " duplicate")
		if first.ID != id || second != first {
			t.Fatalf("cut %d: original %+v, duplicate %+v", cut, first, second)
		}
	}
	if got := executions.Load(); got != 3 {
		t.Errorf("handler executions = %d, want 3 (one per ID)", got)
	}
	if got := reg.Counter(MetricDedupReplays).Value(); got != 3 {
		t.Errorf("%s = %d, want 3", MetricDedupReplays, got)
	}
	srv.Close()
	if err := <-served; err != nil {
		t.Errorf("Serve: %v", err)
	}
}
