// Command loadgen drives the authorization hot path at load-harness
// scale: it synthesizes a coalition with up to a million principals
// (internal/sim/load.LoadFixture — lazy certificate materialization keeps
// setup proportional to the zipf-hot working set, not the population),
// pre-signs a heavy-tailed request pool, and replays it closed- or
// open-loop against an in-process server while belief churn (group-link
// joins, identity revocations, CRL publishes) flows through the
// Mutation API. The run report — RPS, p50/p99/p999 latency, outcome and
// churn counts, plus the server's own authz_* metrics — is written as
// JSON for scripts/bench_load.sh to assemble into BENCH_load.json.
//
//	go run ./cmd/loadgen -duration 5s -concurrency 4
//	go run ./cmd/loadgen -mode open -rate 2000 -duration 10s
//	go run ./cmd/loadgen -principals 1000000 -objects 10000 -pool 512
//	go run ./cmd/loadgen -batch-verify=false -pooling=false -label baseline
//	go run ./cmd/loadgen -transport -conns 4 -duration 5s -concurrency 16
//
// With -transport the same workload crosses real localhost TCP: requests
// fan out over -conns multiplexed daemon connections (unique correlation
// IDs, dedup-cache retry safety, reply demux), so the measured latency
// includes framing, JSON codecs and kernel round trips — the
// wire-inclusive series of BENCH_load.json.
//
// Server-side knobs (-batch-verify, -pooling, -residuals) select the
// optimization under test; everything else shapes the workload. See
// docs/BENCHMARKS.md for the harness guide and docs/OPERATIONS.md for the
// runbook.
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

	"jointadmin/internal/obs"
	"jointadmin/internal/sim/load"
)

// report is the JSON document loadgen emits.
type report struct {
	Label        string           `json:"label,omitempty"`
	Profile      load.LoadProfile `json:"profile"`
	Materialized struct {
		Principals int `json:"principals"`
		Groups     int `json:"groups"`
	} `json:"materialized"`
	SetupS float64        `json:"setup_s"`
	Run    load.RunResult `json:"run"`
	Authz  struct {
		Requests            int64 `json:"requests"`
		ResidualHits        int64 `json:"residual_hits"`
		ResidualFallbacks   int64 `json:"residual_fallbacks"`
		BatchBatches        int64 `json:"batch_verify_batches"`
		BatchItems          int64 `json:"batch_verify_items"`
		BatchFallbacks      int64 `json:"batch_verify_fallbacks"`
		CacheHitsIdentity   int64 `json:"cert_cache_hits_identity"`
		CacheMissesIdentity int64 `json:"cert_cache_misses_identity"`
		SnapshotSwaps       int64 `json:"snapshot_swaps"`
		// The cold window a publish opens: certificate re-verifications
		// (all kinds) and full-replay fallbacks per snapshot swap, first
		// touches included; 0 when nothing was published.
		CacheMissesPerSwap       float64 `json:"cache_misses_per_swap"`
		ResidualFallbacksPerSwap float64 `json:"residual_fallbacks_per_swap"`
	} `json:"authz"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")

	var (
		mode        = flag.String("mode", "closed", "drive mode: closed (workers back to back) or open (fixed-rate arrivals)")
		duration    = flag.Duration("duration", 5*time.Second, "run length")
		concurrency = flag.Int("concurrency", 4, "worker goroutines")
		rate        = flag.Float64("rate", 1000, "open-loop arrival rate, requests/second")

		principals = flag.Int("principals", 100000, "coalition principal population (10^5 to 10^6)")
		objects    = flag.Int("objects", 1000, "protected objects")
		groupSize  = flag.Int("group-size", 3, "n of each object's m-of-n write group")
		quorum     = flag.Int("quorum", 2, "m: co-signers per joint write")
		keys       = flag.Int("keys", 32, "real RSA key pairs backing the population")
		bits       = flag.Int("bits", 512, "RSA modulus bits")
		pool       = flag.Int("pool", 256, "pre-signed request variants in the replay pool")
		zipf       = flag.Float64("zipf", 1.2, "zipf skew (>1) for object and signer selection")

		readFrac      = flag.Float64("read-frac", 0.55, "fraction of threshold reads")
		selectiveFrac = flag.Float64("selective-frac", 0.10, "fraction of selective (A35 single-subject) reads")
		denyFrac      = flag.Float64("deny-frac", 0.05, "fraction of sub-quorum writes (expected denials)")

		churnEvery = flag.Duration("churn-every", 500*time.Millisecond, "belief-mutation period (0 disables churn)")
		seed       = flag.Int64("seed", 1, "workload seed")

		transportMode = flag.Bool("transport", false, "drive over localhost TCP through the daemon serve pipeline and mux clients (wire-inclusive latency)")
		conns         = flag.Int("conns", 4, "transport mode: multiplexed daemon connections shared by the workers")

		batchVerify = flag.Bool("batch-verify", true, "enable k-way batched certificate verification")
		pooling     = flag.Bool("pooling", true, "enable engine-fork and scratch pooling")
		residuals   = flag.Bool("residuals", true, "enable the precompiled residual fast path")

		label = flag.String("label", "", "series label copied into the report")
		out   = flag.String("out", "", "write the JSON report here instead of stdout")
	)
	flag.Parse()

	profile := load.LoadProfile{
		Principals:    *principals,
		Objects:       *objects,
		GroupSize:     *groupSize,
		WriteQuorum:   *quorum,
		Keys:          *keys,
		Bits:          *bits,
		PoolSize:      *pool,
		ZipfS:         *zipf,
		ReadFrac:      *readFrac,
		SelectiveFrac: *selectiveFrac,
		DenyFrac:      *denyFrac,
		Seed:          *seed,
	}

	setupStart := time.Now()
	f, err := load.NewLoadFixture(profile)
	if err != nil {
		log.Fatal(err)
	}
	setup := time.Since(setupStart)
	log.Printf("coalition up: %d principals (%d materialized), %d objects, %d groups, pool %d, setup %.2fs",
		profile.Principals, f.MaterializedPrincipals(), profile.Objects,
		f.MaterializedGroups(), len(f.Pool()), setup.Seconds())

	f.Server.SetBatchVerify(*batchVerify)
	f.Server.SetPooling(*pooling)
	f.Server.SetResidualsEnabled(*residuals)
	reg := obs.NewRegistry()
	f.Server.Instrument(reg)

	res, err := f.Run(context.Background(), load.RunConfig{
		Mode:        *mode,
		Duration:    *duration,
		Concurrency: *concurrency,
		RateHz:      *rate,
		ChurnEvery:  *churnEvery,
		Seed:        *seed,
		Transport:   *transportMode,
		Conns:       *conns,
	}, reg)
	if err != nil {
		log.Fatal(err)
	}
	if res.Unexpected > 0 {
		log.Printf("WARNING: %d decisions contradicted their expected outcome", res.Unexpected)
	}
	log.Printf("%s loop: %.0f req/s, p50 %.0fµs p99 %.0fµs p999 %.0fµs (%d sent, %d churn)",
		res.Mode, res.RPS, res.P50Us, res.P99Us, res.P999Us, res.Sent, res.ChurnApplied)
	if res.Wire != nil {
		log.Printf("wire: %d conns, %d stale replies shed, %d resends, %d dedup replays, %d conns lost",
			res.Wire.Conns, res.Wire.StaleReplies, res.Wire.Resends, res.Wire.DedupReplays, res.Wire.ConnLost)
	}

	var rep report
	rep.Label = *label
	rep.Profile = profile
	rep.Materialized.Principals = f.MaterializedPrincipals()
	rep.Materialized.Groups = f.MaterializedGroups()
	rep.SetupS = setup.Seconds()
	rep.Run = res
	snap := reg.Snapshot()
	rep.Authz.Requests = snap.CounterValue("authz_requests_total")
	rep.Authz.ResidualHits = snap.CounterValue("authz_residual_hits_total")
	rep.Authz.ResidualFallbacks = snap.CounterValue("authz_residual_fallbacks_total")
	rep.Authz.BatchBatches = snap.CounterValue("authz_batch_verify_batches_total")
	rep.Authz.BatchItems = snap.CounterValue("authz_batch_verify_items_total")
	rep.Authz.BatchFallbacks = snap.CounterValue("authz_batch_verify_fallbacks_total")
	rep.Authz.CacheHitsIdentity = snap.CounterValue(`authz_cert_cache_hits_total{kind="identity"}`)
	rep.Authz.CacheMissesIdentity = snap.CounterValue(`authz_cert_cache_misses_total{kind="identity"}`)
	rep.Authz.SnapshotSwaps = snap.CounterValue("authz_snapshot_swaps_total")
	if swaps := float64(rep.Authz.SnapshotSwaps); swaps > 0 {
		var misses int64
		for _, c := range snap.Counters {
			if strings.HasPrefix(c.Name, "authz_cert_cache_misses_total") {
				misses += c.Value
			}
		}
		rep.Authz.CacheMissesPerSwap = float64(misses) / swaps
		rep.Authz.ResidualFallbacksPerSwap = float64(rep.Authz.ResidualFallbacks) / swaps
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}
