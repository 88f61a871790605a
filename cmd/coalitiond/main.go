// Command coalitiond runs a coalition policy server over TCP: it forms an
// alliance, enrolls demo users, installs a jointly owned object, and then
// serves joint access requests, revocations, dynamics events, audit and
// stats queries from policyctl.
//
//	go run ./cmd/coalitiond -listen 127.0.0.1:7707 -metrics-addr 127.0.0.1:7780
//	go run ./cmd/policyctl  -server 127.0.0.1:7707 -cmd write -signers alice,bob -data "v2"
//	go run ./cmd/policyctl  -server 127.0.0.1:7707 -cmd stats
//
// With -role follower the same binary runs as a read-only replica that
// mirrors a writer's WAL over the replication protocol and serves
// authorize/audit/replstatus at its replayed watermark:
//
//	go run ./cmd/coalitiond -listen 127.0.0.1:7707 -data-dir /var/lib/coalitiond
//	go run ./cmd/coalitiond -role follower -name f1 -listen 127.0.0.1:7711 -follow 127.0.0.1:7707
//
// With -metrics-addr set, the daemon serves its observability endpoints on
// that address: /metrics (Prometheus text), /debug/vars (JSON snapshot +
// memstats) and /debug/pprof/ (see docs/OPERATIONS.md).
//
// The protocol and alliance logic live in internal/daemon; this command is
// the thin process wrapper.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"jointadmin/internal/daemon"
	"jointadmin/internal/obs"
	"jointadmin/internal/transport"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7707", "address to serve on")
	role := flag.String("role", "writer", "daemon role: writer (accepts dynamics, ships its WAL) or follower (read-only replica)")
	name := flag.String("name", "", "follower: this node's name; every follower in a fleet needs a distinct one (default \"follower\")")
	follow := flag.String("follow", "", "follower: the writer's listen address to replicate from (required with -role follower)")
	domains := flag.String("domains", "D1,D2,D3", "comma-separated member domains")
	users := flag.String("users", "alice,bob,carol", "comma-separated demo users (assigned to domains round-robin)")
	writeM := flag.Int("write-threshold", 2, "co-signers required for writes")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (empty = disabled)")
	dataDir := flag.String("data-dir", "", "durable state directory (write-ahead log + snapshots; empty = in-memory only)")
	walBatch := flag.Duration("wal-batch", 0, "WAL group-commit fsync window (0 = fsync every append)")
	auditCap := flag.Int("audit-retention", 0, "cap on in-memory audit entries (0 = default 4096, negative = unbounded; an evicted entry survives only in a writer's WAL, with -data-dir)")
	replBatch := flag.Int("repl-batch", 64, "writer: max WAL records per shipped replication frame")
	replHeartbeat := flag.Duration("repl-heartbeat", time.Second, "writer: idle status heartbeat interval per follower (the staleness bound is this plus transport retry latency)")
	replSnapEvery := flag.Int("repl-snapshot-every", 4096, "writer: re-ship a full snapshot to a follower after this many records (refreshes object content)")
	replResync := flag.Duration("repl-resync", 3*time.Second, "follower: writer-silence threshold before re-announcing (resync hello)")
	dedupCap := flag.Int("dedup-cap", 0, "retried-command dedup cache size: completed replies remembered for replay to duplicate command IDs (0 = default 1024, negative disables)")
	dialTimeout := flag.Duration("dial-timeout", transport.DefaultDialTimeout, "transport: per-connection dial deadline")
	sendTimeout := flag.Duration("send-timeout", transport.DefaultWriteTimeout, "transport: per-frame write deadline (negative disables)")
	sendRetries := flag.Int("send-retries", transport.DefaultAttempts, "transport: send attempts per frame (1 disables retries)")
	retryBackoff := flag.Duration("retry-backoff", transport.DefaultRetryBase, "transport: first retry backoff (doubles per attempt, jittered)")
	flag.Parse()
	topts := transport.Options{
		DialTimeout:  *dialTimeout,
		WriteTimeout: *sendTimeout,
		Attempts:     *sendRetries,
		RetryBase:    *retryBackoff,
	}
	var err error
	switch *role {
	case "writer":
		err = run(*listen, *metricsAddr, splitCSV(*domains), splitCSV(*users), *writeM,
			*dataDir, *walBatch, *auditCap, *replBatch, *replHeartbeat, *replSnapEvery, *dedupCap, topts)
	case "follower":
		err = runFollower(*listen, *metricsAddr, *name, *follow, *auditCap, *replResync, *dedupCap, topts)
	default:
		err = fmt.Errorf("unknown -role %q (want writer or follower)", *role)
	}
	if err != nil {
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

// serveMetrics starts the observability listener when addr is non-empty.
func serveMetrics(addr string, reg *obs.Registry) {
	if addr == "" {
		return
	}
	go func() {
		log.Printf("coalitiond metrics on http://%s/metrics (also /debug/vars, /debug/pprof/)", addr)
		if err := http.ListenAndServe(addr, obs.Handler(reg)); err != nil {
			log.Printf("coalitiond: metrics listener: %v", err)
		}
	}()
}

func run(listen, metricsAddr string, domains, users []string, writeM int, dataDir string,
	walBatch time.Duration, auditCap, replBatch int, replHeartbeat time.Duration,
	replSnapEvery, dedupCap int, topts transport.Options) error {
	reg := obs.NewRegistry()
	d, err := daemon.New(daemon.Config{
		Domains:           domains,
		Users:             users,
		WriteThreshold:    writeM,
		Metrics:           reg,
		DataDir:           dataDir,
		WALBatchWindow:    walBatch,
		AuditRetention:    auditCap,
		Transport:         topts,
		Replicate:         dataDir != "",
		ReplBatch:         replBatch,
		ReplHeartbeat:     replHeartbeat,
		ReplSnapshotEvery: replSnapEvery,
		DedupCap:          dedupCap,
	})
	if err != nil {
		return err
	}
	defer d.Close()
	if dataDir != "" {
		log.Printf("coalitiond durable state in %s (wal-batch=%s, replication enabled)", dataDir, walBatch)
	}
	node, err := d.Listen(listen)
	if err != nil {
		return err
	}
	defer node.Close()
	serveMetrics(metricsAddr, reg)
	log.Printf("coalitiond serving on %s (domains=%v users=%v write-threshold=%d)",
		node.Addr(), domains, users, writeM)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	err = d.Serve(ctx, node)
	if errors.Is(err, context.Canceled) {
		log.Printf("coalitiond: shutting down")
		return nil
	}
	return err
}

func runFollower(listen, metricsAddr, name, follow string, auditCap int,
	resync time.Duration, dedupCap int, topts transport.Options) error {
	reg := obs.NewRegistry()
	f, err := daemon.NewFollower(daemon.FollowerConfig{
		Name:           name,
		WriterAddr:     follow,
		Metrics:        reg,
		Transport:      topts,
		AuditRetention: auditCap,
		ResyncAfter:    resync,
		DedupCap:       dedupCap,
	})
	if err != nil {
		return err
	}
	node, err := f.Listen(listen)
	if err != nil {
		return err
	}
	defer node.Close()
	serveMetrics(metricsAddr, reg)
	log.Printf("coalitiond follower %q serving on %s (replicating from %s)", name, node.Addr(), follow)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	err = f.Serve(ctx, node)
	if errors.Is(err, context.Canceled) {
		log.Printf("coalitiond: shutting down")
		return nil
	}
	return err
}
