// Command policyctl is the admin client for coalitiond: it submits joint
// access requests, revocations, coalition-dynamics events, audit queries
// and metrics queries over TCP.
//
//	go run ./cmd/policyctl -server 127.0.0.1:7707 -cmd write -signers alice,bob -data "v2"
//	go run ./cmd/policyctl -server 127.0.0.1:7707 -cmd read  -signers carol
//	go run ./cmd/policyctl -server 127.0.0.1:7707 -cmd audit
//	go run ./cmd/policyctl -server 127.0.0.1:7707 -cmd stats
//	go run ./cmd/policyctl -server 127.0.0.1:7707 -cmd join -domain D4
//
// mutate applies one belief mutation through the server's unified
// Apply path, selected by -op — one verb per mutation variant:
//
//	go run ./cmd/policyctl -server $W -cmd mutate -op link -group G_sub -data G_write
//	go run ./cmd/policyctl -server $W -cmd mutate -op revoke -group G_write
//	go run ./cmd/policyctl -server $W -cmd mutate -op revoke-identity -data alice
//	go run ./cmd/policyctl -server $W -cmd mutate -op crl
//	go run ./cmd/policyctl -server $W -cmd mutate -op reanchor
//
// The delegation subsystem adds two verbs and a request mode. -op delegate
// installs a delegation-link certificate — data is [delegator>]subject:
// depth:perms (a root grant omits the delegator); -op graph-link installs
// a group-graph edge (group is the member group, data is sup:depth); -op
// revoke with -data severs every chain routed through the named delegate.
// A request with -delegated routes through the lone signer's chain:
//
//	go run ./cmd/policyctl -server $W -cmd mutate -op delegate -group G_read -data "alice:1:read"
//	go run ./cmd/policyctl -server $W -cmd mutate -op delegate -group G_read -data "alice>bob:0:read"
//	go run ./cmd/policyctl -server $W -cmd mutate -op graph-link -group G_folder -data "G_read:1"
//	go run ./cmd/policyctl -server $W -cmd mutate -op revoke -group G_read -data alice
//	go run ./cmd/policyctl -server $W -cmd read -delegated -signers bob
//
// stats pretty-prints the daemon's metrics snapshot: command counters,
// denial taxonomy, and per-step latency histograms (count / mean / p50 /
// p99). See docs/OPERATIONS.md for the metric catalog.
//
// Against a replicated fleet (see docs/REPLICATION.md), sign asks the
// writer for a signed wire access request and authorize evaluates it on
// a follower; replstatus reports a follower's replication position:
//
//	go run ./cmd/policyctl -server $WRITER   -cmd sign -signers carol -op read
//	go run ./cmd/policyctl -server $FOLLOWER -cmd authorize -data "$SIGNED"
//	go run ./cmd/policyctl -server $FOLLOWER -cmd replstatus
//
// The wal subcommand inspects a coalitiond data directory offline
// (record counts per type, last epoch, corruption check) without going
// through the daemon — run it on the daemon's host:
//
//	go run ./cmd/policyctl wal -data-dir /var/lib/coalitiond
//	go run ./cmd/policyctl wal -data-dir /var/lib/coalitiond -dump
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"jointadmin/internal/daemon"
	"jointadmin/internal/obs"
	"jointadmin/internal/transport"
)

func main() {
	// The wal subcommand operates on files, not the daemon, so it takes
	// its own flag set: `policyctl wal -data-dir DIR [-dump]`.
	if len(os.Args) > 1 && os.Args[1] == "wal" {
		if err := runWAL(os.Args[2:]); err != nil {
			log.Fatal(err)
		}
		return
	}
	server := flag.String("server", "127.0.0.1:7707", "coalitiond address")
	cmd := flag.String("cmd", "audit", "command: write, read, revoke, mutate, audit, stats, join, leave, sign, authorize, replstatus")
	group := flag.String("group", "", "group name (defaults per command)")
	object := flag.String("object", "", "object name (default O)")
	data := flag.String("data", "", "write payload; for authorize, the signed request JSON from sign")
	op := flag.String("op", "", "sign: permission the signed request asks for (default read); mutate: mutation verb (link, revoke, revoke-identity, crl, reanchor, delegate, graph-link)")
	signers := flag.String("signers", "", "comma-separated co-signers")
	delegated := flag.Bool("delegated", false, "route the request through the lone signer's delegation chain")
	domain := flag.String("domain", "", "domain for join/leave")
	timeout := flag.Duration("timeout", 10*time.Second, "reply timeout")
	dialTimeout := flag.Duration("dial-timeout", transport.DefaultDialTimeout, "transport: dial deadline for reaching the daemon")
	sendRetries := flag.Int("send-retries", transport.DefaultAttempts, "transport: send attempts per frame (1 disables retries)")
	retryBackoff := flag.Duration("retry-backoff", transport.DefaultRetryBase, "transport: first retry backoff (doubles per attempt, jittered)")
	flag.Parse()

	if err := run(*server, daemon.Command{
		Cmd:       *cmd,
		Group:     *group,
		Object:    *object,
		Data:      *data,
		Signers:   splitCSV(*signers),
		Domain:    *domain,
		Op:        *op,
		Delegated: *delegated,
	}, *timeout, transport.Options{
		DialTimeout: *dialTimeout,
		Attempts:    *sendRetries,
		RetryBase:   *retryBackoff,
	}); err != nil {
		log.Fatal(err)
	}
}

func splitCSV(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func run(server string, cmd daemon.Command, timeout time.Duration, topts transport.Options) error {
	// The mux client correlates the reply by Command.ID: the invocation
	// gets a unique ID, envelopes answering anything else (duplicates of a
	// retried frame) are shed instead of printed, and an unanswered command is
	// retransmitted under the same ID — the daemon's dedup cache replays
	// the recorded reply, so a retried mutation is never applied twice.
	cli, err := daemon.Dial(daemon.ClientConfig{
		ServerAddr: server,
		Name:       "policyctl",
		Transport:  topts,
		Resend:     time.Second,
	})
	if err != nil {
		return err
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	reply, err := cli.Call(ctx, cmd)
	if err != nil {
		return fmt.Errorf("no reply from %s: %w", server, err)
	}
	if reply.Detail != "" {
		fmt.Println(reply.Detail)
	}
	if reply.Data != "" {
		if cmd.Cmd == "stats" && reply.OK {
			printStats(reply.Data)
		} else {
			fmt.Println(reply.Data)
		}
	}
	if !reply.OK {
		os.Exit(1)
	}
	return nil
}

// printStats pretty-prints the daemon's metrics snapshot: counters and
// gauges as aligned name/value columns, histograms as count / mean / p50 /
// p99 (latencies rendered as durations).
func printStats(data string) {
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(data), &snap); err != nil {
		fmt.Println(data) // not a snapshot; show raw
		return
	}
	width := 0
	for _, c := range snap.Counters {
		width = max(width, len(c.Name))
	}
	for _, g := range snap.Gauges {
		width = max(width, len(g.Name))
	}
	for _, h := range snap.Histograms {
		width = max(width, len(h.Name))
	}
	if len(snap.Counters) > 0 {
		fmt.Println("COUNTERS")
		for _, c := range snap.Counters {
			fmt.Printf("  %-*s %10d\n", width, c.Name, c.Value)
		}
	}
	if len(snap.Gauges) > 0 {
		fmt.Println("GAUGES")
		for _, g := range snap.Gauges {
			fmt.Printf("  %-*s %10d\n", width, g.Name, g.Value)
		}
	}
	if len(snap.Histograms) > 0 {
		fmt.Println("HISTOGRAMS" + strings.Repeat(" ", max(0, width-8)) + "count       mean        p50        p99")
		for _, h := range snap.Histograms {
			fmt.Printf("  %-*s %10d %10s %10s %10s\n", width, h.Name, h.Count,
				dur(h.Mean()), dur(h.Quantile(0.5)), dur(h.Quantile(0.99)))
		}
	}
}

// dur renders a seconds value as a rounded duration.
func dur(seconds float64) string {
	return time.Duration(seconds * float64(time.Second)).Round(time.Microsecond).String()
}
