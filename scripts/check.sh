#!/bin/sh
# CI gate: formatting, vet, build, tests. Run from the repo root (or via
# `make check`). Fails fast with a named step so CI logs are readable.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> one-benchmark guard (no second performance harness)"
# The repository's benchmark is `sh benchmark/run.sh` (BENCHMARK.json,
# benchmark/README.md); micro-benchmarks are plain `go test -bench` in
# the package they measure (docs/BENCHMARKS.md). A recorder script, a
# committed result file or a load-generator CLI beside them is a second
# measurement story that goes stale.
bad=$(ls -d BENCH_*.json scripts/bench_*.sh cmd/loadgen 2>/dev/null || true)
if [ -n "$bad" ]; then
    echo "one-benchmark guard: second harness present:" >&2
    echo "$bad" >&2
    exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> public-surface lint and architecture rules (every name has a caller or an allow-list reason; no rule row is broken)"
# scripts/surface type-checks every module under the root; its package
# comment gives the caller rule, allow.txt's categories and the kinds of
# row in its rule table (rules.go), each row's reason saying why.
go run ./scripts/surface

echo "==> go test -count=2 ./..."
# Every package twice in one process: a test that leaks state through a
# shared fixture (a group granted and revoked on a package-level writer,
# a warm server reused as a cold one) fails its second run.
go test -count=2 ./...

echo "==> go test -race ./..."
go test -race ./...

echo "==> benchmark module (cd benchmark && go vet ./... && go test ./...)"
# The nested module is outside ./...: build and self-test it here (-quick
# suite plus the contract-name checks), so an internal/ API change that
# breaks the frozen benchmark fails CI, not the benchmark pipeline.
(cd benchmark && go vet ./... && go test ./...)

echo "==> crash recovery under race (go test -race -run 'CrashRecovery|Recovery')"
go test -race -run 'CrashRecovery|Recovery' ./internal/authz/ ./internal/daemon/

echo "==> transport + replication chaos under race (go test -race -count=2 -run Chaos ./internal/daemon/)"
# Matches TestChaosJoinRequestRevokeRequest (single daemon) and
# TestChaosReplicatedFleet (writer + two followers over Faulty links).
go test -race -count=2 -run Chaos ./internal/daemon/

echo "==> mux client and fault injector on loopback TCP under race (go test -race -count=2 -run 'Client|Mux|Naive|Retried|Faulty' ./internal/daemon/ ./internal/transport/)"
# The mux client's correlation, resend and conn-loss tests and the
# fault injector's drop, duplicate, delay and sever tests, each on real
# sockets, twice, as the chaos suites run.
go test -race -count=2 -run 'Client|Mux|Naive|Retried|Faulty' ./internal/daemon/ ./internal/transport/

echo "==> share redistribution properties under race (go test -race -count=2 -run 'Redistribut|Refresh|Cooperative' ./internal/sharedrsa ./internal/coalition)"
# The dealing function's properties (the key survives seeded join/leave
# sequences, mixed-epoch shares never combine, shares stay bounded) and
# the coalition's cooperative join and leave.
go test -race -count=2 -run 'Redistribut|Refresh|Cooperative' ./internal/sharedrsa ./internal/coalition

echo "==> audit ring under race (go test -race -count=5 ./internal/audit)"
go test -race -count=5 ./internal/audit

echo "==> replication under race (go test -race -count=5 ./internal/replication)"
# Every test builds its own writer server and WAL, so five runs in one
# process cost five times one and a test that leaks state into the next
# run fails here.
go test -race -count=5 ./internal/replication

echo "==> bench smoke (go test -bench=LogRecord -benchtime=1x ./internal/audit)"
go test -run '^$' -bench=LogRecord -benchtime=1x -benchmem ./internal/audit

echo "==> bench smoke (go test -bench=DelegationDepth -benchtime=1x)"
go test -run '^$' -bench=DelegationDepth -benchtime=1x .

echo "==> bench smoke (go test -bench=WALAppend -benchtime=1x ./internal/wal)"
go test -run '^$' -bench=WALAppend -benchtime=1x ./internal/wal

echo "==> bench smoke (go test -bench='FollowerFleet|CommandCodec|WireAuthorize' -benchtime=1x ./internal/daemon)"
go test -run '^$' -bench='FollowerFleet|CommandCodec|WireAuthorize' -benchtime=1x -benchmem ./internal/daemon

echo "==> bench smoke (go test -bench=FrameCodec -benchtime=1x ./internal/transport)"
go test -run '^$' -bench=FrameCodec -benchtime=1x -benchmem ./internal/transport

echo "==> bench smoke (go test -bench='^Benchmark(Verify|GenerateKey|SignJointly|Redistribute)$' -benchtime=1x ./internal/sharedrsa)"
go test -run '^$' -bench='^Benchmark(Verify|GenerateKey|SignJointly|Redistribute)$' -benchtime=1x -benchmem ./internal/sharedrsa

echo "==> bench smoke (go test -bench='^BenchmarkSign$' -benchtime=1x ./internal/pki)"
go test -run '^$' -bench='^BenchmarkSign$' -benchtime=1x -benchmem ./internal/pki

echo "==> bench smoke (go test -bench='^BenchmarkAuthorizeWarm$' -benchtime=1x ./internal/authz)"
go test -run '^$' -bench='^BenchmarkAuthorizeWarm$' -benchtime=1x -benchmem ./internal/authz

echo "==> wire codec fuzz smoke (5s each: FuzzReadFrame, FuzzDecodeCommand, FuzzDecodeReply)"
go test -run '^$' -fuzz='^FuzzReadFrame$' -fuzztime=5s ./internal/transport
go test -run '^$' -fuzz='^FuzzDecodeCommand$' -fuzztime=5s ./internal/daemon
go test -run '^$' -fuzz='^FuzzDecodeReply$' -fuzztime=5s ./internal/daemon

echo "==> access-request decoder fuzz smoke (5s: FuzzDecodeAccessRequest, differential against encoding/json)"
go test -run '^$' -fuzz='^FuzzDecodeAccessRequest$' -fuzztime=5s ./internal/authz

echo "==> RSA kernel, joint-signature partials, CRT signer and signature parser fuzz smoke (5s each: FuzzExpPublic against big.Int.Exp, FuzzPartials against Exp(h, d_i, N), FuzzSignCRT against Exp(h, d, N), FuzzParseHex against SetString)"
go test -run '^$' -fuzz='^FuzzExpPublic$' -fuzztime=5s ./internal/sharedrsa
go test -run '^$' -fuzz='^FuzzPartials$' -fuzztime=5s ./internal/sharedrsa
go test -run '^$' -fuzz='^FuzzSignCRT$' -fuzztime=5s ./internal/sharedrsa
go test -run '^$' -fuzz='^FuzzParseHex$' -fuzztime=5s ./internal/sharedrsa

echo "==> rendering fuzz smoke (5s: FuzzRendering, the append renderers and MessageEqual against the concatenating oracle)"
go test -run '^$' -fuzz='^FuzzRendering$' -fuzztime=5s ./internal/logic

echo "==> examples (go run each directory under examples/; each exits non-zero on a wrong approval or denial)"
for d in examples/*/; do
    if ! out=$(go run "./$d" 2>&1); then
        printf '%s\n' "$out" >&2
        echo "examples: go run ./$d failed" >&2
        exit 1
    fi
done

echo "==> reproduction record (go run ./cmd/experiments: E1–E8, E11–E13, each shape checked; ≈60s on 2 cores)"
# Every experiment exits non-zero when the table it prints breaks the
# paper's shape, so this step fails on a broken claim.
record=$(go run ./cmd/experiments)

echo "==> docs lint (every CLI flag, metric and error kind documented; every documented metric registered)"
fail=0
# Every experiment the command prints has a section in EXPERIMENTS.md,
# and every section there names its experiment.
for id in $(printf '%s\n' "$record" | grep -oE '^E[0-9]+ ' | sort -u); do
    if ! grep -q "^## $id " EXPERIMENTS.md; then
        echo "docs lint: experiment $id has no section in EXPERIMENTS.md" >&2
        fail=1
    fi
done
bad=$(grep -E '^## ' EXPERIMENTS.md | grep -vE '^## E[0-9]+ ' || true)
if [ -n "$bad" ]; then
    echo "docs lint: EXPERIMENTS.md section without an experiment ID: $bad" >&2
    fail=1
fi
flags=$(grep -ohE 'flag\.[A-Za-z]+\("[a-z][a-z0-9-]*"' \
    cmd/coalitiond/main.go cmd/policyctl/main.go |
    sed -E 's/.*\("([^"]+)"/\1/' | sort -u)
for f in $flags; do
    if ! grep -rq -- "-$f" docs/; then
        echo "docs lint: flag -$f (cmd/) not documented anywhere in docs/" >&2
        fail=1
    fi
done
# Every metric is documented: one line per family (pattern, files, label).
while read -r pattern files family; do
    for m in $(grep -ohE "\"$pattern[a-z_]+\"" $files | tr -d '"' | sort -u); do
        if ! grep -rq -- "$m" docs/; then
            echo "docs lint: $family metric $m not documented anywhere in docs/" >&2
            fail=1
        fi
    done
done <<'EOF'
repl_ internal/replication/*.go replication
authz_residual_ internal/authz/obs.go residual
authz_batch_verify_ internal/authz/obs.go batch-verify
delegation_ internal/delegation/*.go delegation
daemon_(mux|dedup)_ internal/daemon/*.go mux/dedup
transport_frame_errors_ internal/transport/*.go transport
EOF
# Error taxonomy: every kind a command handler returns (the quoted second
# value of handle, mutate and Follower.handle) and every label errClass
# maps a sentinel to is listed in OPERATIONS.md, where operators read
# daemon_command_errors_total{kind}.
kinds=$( (grep -ohE '\}, "[a-z_]+"$' internal/daemon/daemon.go internal/daemon/follower.go
    sed -n '/^func errClass(/,/^}/p' internal/daemon/daemon.go | grep -oE 'return "[a-z_]+"') |
    grep -oE '"[a-z_]+"' | tr -d '"' | sort -u)
for k in $kinds; do
    if ! grep -qF "\`$k\`" docs/OPERATIONS.md; then
        echo "docs lint: error kind $k (internal/daemon) not listed in docs/OPERATIONS.md" >&2
        fail=1
    fi
done
# Reverse metrics lint: every metric name in the first column of an
# OPERATIONS.md table is a string literal in non-test code of the root
# package, internal/ or cmd/ — a row for a metric nothing registers is
# stale.
gofiles=$(find . -maxdepth 1 -name '*.go' ! -name '*_test.go'
    find internal cmd -name '*.go' ! -name '*_test.go')
names=$(grep -E '^\|' docs/OPERATIONS.md | awk -F'|' '{print $2}' |
    grep -oE '`[^`]*_[^`]*`' | tr -d '`' | sort -u)
for n in $names; do
    if ! grep -qF "\"$n\"" $gofiles; then
        echo "docs lint: OPERATIONS.md lists $n, but no non-test Go file names it" >&2
        fail=1
    fi
done
# Mutation verb parity: every authz.Mutation verb must be wired through
# policyctl's mutate command and documented.
verbs=$(grep -ohE 'Verb[A-Za-z]+ = "[a-z-]+"' internal/authz/mutation.go |
    sed -E 's/.*"([^"]+)"/\1/' | sort -u)
for v in $verbs; do
    if ! grep -q -- "-op $v" cmd/policyctl/main.go; then
        echo "verb parity: mutation verb '$v' has no -op example in cmd/policyctl/main.go" >&2
        fail=1
    fi
    if ! grep -rq -- "$v" docs/; then
        echo "verb parity: mutation verb '$v' not documented anywhere in docs/" >&2
        fail=1
    fi
done
[ "$fail" -eq 0 ] || exit 1

echo "OK"
