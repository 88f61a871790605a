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

echo "==> wire codec import guard (no reflective codec on the request path)"
# Frames, commands and replies are hand-encoded (internal/wirefmt). A
# reflective codec creeping back into these files would bring back the
# per-message decoder compilation and the double parse of the signed
# request that the binary codec removed.
bad=$(grep -lE '"encoding/(gob|json)"' internal/transport/*.go \
    internal/daemon/pipeline.go internal/daemon/client.go internal/daemon/codec.go |
    grep -v '_test\.go$' || true)
if [ -n "$bad" ]; then
    echo "import guard: a reflective codec is imported on the wire path:" >&2
    echo "$bad" >&2
    exit 1
fi
# The access-request decoder and the certificate fingerprint run on every
# request: no reflection, no fmt.
bad=$(grep -lE '"(encoding/json|fmt|reflect)"' internal/authz/decode.go internal/pki/fingerprint.go || true)
if [ -n "$bad" ]; then
    echo "import guard: encoding/json, fmt or reflect imported by:" >&2
    echo "$bad" >&2
    exit 1
fi
# One parser for the signed request: authz.DecodeAccessRequest. A
# json.Unmarshal (or Decoder.Decode) into a variable declared as an
# AccessRequest is a second one. (benchmark/ is frozen and may.)
bad=""
for f in $(grep -rlE '\bAccessRequest\b' --include='*.go' . |
    grep -v -e '_test\.go$' -e '^\./benchmark/' -e '^\./\.bench_build/'); do
    for v in $(grep -ohE '(var +[A-Za-z_][A-Za-z0-9_]* +|[A-Za-z_][A-Za-z0-9_]* *:?= *&?)(authz\.)?AccessRequest\b' "$f" |
        sed -E 's/^(var +)?([A-Za-z_][A-Za-z0-9_]*).*/\2/' | sort -u); do
        if grep -qE "\.(Unmarshal|Decode)\((.*, *)?&$v\)" "$f"; then
            bad="$bad $f:$v"
        fi
    done
done
if [ -n "$bad" ]; then
    echo "import guard: json-decoded AccessRequest (use authz.DecodeAccessRequest):$bad" >&2
    exit 1
fi

echo "==> one-path guard (no deprecated wrappers, no new authz.Server switches)"
# A deprecated wrapper or a compatibility shim is a second entry point to
# keep tested and documented; delete the old one in the change that adds
# the new one. (The frozen benchmark/ module is not ours to edit.)
bad=$(grep -rlE '// Deprecated:|compatibility shim' --include='*.go' . |
    grep -v -e '_test\.go$' -e '^\./benchmark/' -e '^\./\.bench_build/' || true)
if [ -n "$bad" ]; then
    echo "one-path guard: deprecated wrapper or compatibility shim in:" >&2
    echo "$bad" >&2
    exit 1
fi
# authz.Server's runtime switches: each is a second decision path. This
# list may only shrink (the three left go with the next benchmark issue,
# which is what still calls them; SetResidualsEnabled selects the oracle,
# not a serving path). SetJournal attaches the WAL — wiring, not a switch.
for m in $(grep -hoE '^func \(s \*Server\) Set[A-Za-z]+' internal/authz/*.go | sed -E 's/.* //'); do
    case "$m" in
    SetBatchVerify | SetPooling | SetResidualsEnabled | SetJournal) ;;
    *)
        echo "one-path guard: authz.Server.$m is not on the setter allow-list" >&2
        exit 1
        ;;
    esac
done

echo "==> one-return-path guard (answers go back on the connection they answer)"
# Command replies and replication frames go back on the connection their
# command or hello arrived on (transport Reply). An address carried in a
# frame (the old "cmd@addr" kind, a hello's address) is a second return
# path that dials whatever a sender names. Outside internal/transport,
# only daemon.Dial and Follower.Listen register a peer address, each from
# its own configuration. (benchmark/ is frozen and may.)
bad=$(grep -rnE '"cmd@|returnAddr' --include='*.go' . |
    grep -v -e '_test\.go:' -e '^\./benchmark/' -e '^\./\.bench_build/' || true)
if [ -n "$bad" ]; then
    echo "one-return-path guard: a reply address in a frame:" >&2
    echo "$bad" >&2
    exit 1
fi
for hit in $(grep -rn 'AddPeer(' --include='*.go' . |
    grep -v -e '_test\.go:' -e '^\./internal/transport/' -e '^\./benchmark/' -e '^\./\.bench_build/' |
    cut -d: -f1,2); do
    fn=$(head -n "${hit#*:}" "${hit%%:*}" | grep -E '^func ' | tail -n 1)
    case "$fn" in
    'func Dial('* | 'func (f *Follower) Listen('*) ;;
    *)
        echo "one-return-path guard: AddPeer at $hit, in: $fn" >&2
        exit 1
        ;;
    esac
done

echo "==> one-issuance-point guard (identity certificates are issued at enrolment and held)"
# A domain issues a user's identity certificate when it enrols the user
# and holds it for the user's requests (coalition.Member.issue, reached
# from AddUser and from IdentityOf's re-issue path). A DomainCA
# IssueIdentity call anywhere else is a per-request mint: a CA signature
# per signer per request and a never-seen certificate for the server's
# verified-certificate cache. The load fixture of internal/sim/load
# issues each principal's certificate once and holds it the same way.
# (internal/authority and internal/pki define issuance; benchmark/ is
# frozen and may.)
for hit in $(grep -rn '\.IssueIdentity(' --include='*.go' . |
    grep -v -e '_test\.go:' -e '^\./internal/authority/' -e '^\./internal/pki/' \
        -e '^\./benchmark/' -e '^\./\.bench_build/' |
    cut -d: -f1,2); do
    fn=$(head -n "${hit#*:}" "${hit%%:*}" | grep -E '^func ' | tail -n 1)
    case "${hit%%:*} $fn" in
    './internal/coalition/coalition.go func (m *Member) issue('* | \
        './internal/sim/load/load.go func (f *LoadFixture) identityOf('*) ;;
    *)
        echo "one-issuance-point guard: IssueIdentity at $hit, in: $fn" >&2
        exit 1
        ;;
    esac
done

echo "==> rekey-path guard (a join or leave is a prepare, then a commit)"
# The daemon runs a join or leave as Alliance.PrepareJoin/PrepareLeave —
# the keygen — then Alliance.Commit and the re-anchor (Daemon.rekey),
# timing each phase in daemon_rekey_seconds. Join or Leave (a call or a
# method value, on the alliance or its coalition) in the daemon or its
# command would be a second path that fuses the two, and the keygen
# could then never leave the dynamics gate (ROADMAP item 10(b)).
bad=$(grep -nE '\.(Join|Leave)\b' internal/daemon/*.go cmd/coalitiond/*.go |
    grep -v '_test\.go:' | grep -vE '\b(strings|bytes|filepath|path)\.Join\(' || true)
if [ -n "$bad" ]; then
    echo "rekey-path guard: Join or Leave in the daemon (use PrepareJoin/PrepareLeave, then Commit):" >&2
    echo "$bad" >&2
    exit 1
fi

echo "==> public-exponent guard (one kernel raises to e)"
# Every S^e mod N — Verify, Combine's trial correction, BatchVerify's
# product checks — goes through sharedrsa's Montgomery kernel
# (internal/sharedrsa/montgomery.go). A math/big Exp by a public
# exponent elsewhere is a second, slower verification path. Private
# exponents stay on math/big and do not match. The commands and examples
# are held to the same rule: their checks verify with sharedrsa.Verify.
bad=$(grep -rnE '\.Exp\(.*(\bpk\.E\b|\.E,)' --include='*.go' internal cmd examples |
    grep -v -e '_test\.go:' -e '^internal/sharedrsa/montgomery\.go:' || true)
if [ -n "$bad" ]; then
    echo "public-exponent guard: Exp by a public exponent outside the kernel:" >&2
    echo "$bad" >&2
    exit 1
fi

echo "==> private-exponent guard (conventional keys sign in CRT form)"
# User and domain-CA keys sign through sharedrsa.CRTKey (crt.go): two
# half-size exponentiations, checked by the public-exponent kernel before
# release. A math/big Exp anywhere else is a full-width private-key path
# that skips the check — unless it is one of the paths that cannot have a
# CRT form: the shared-key protocols (no party knows φ(N)), keygen, the
# dealer and Case I's lock box, and the commands' ablations.
bad=$(grep -rnE '\.Exp\(' --include='*.go' . |
    grep -v -e '_test\.go:' -e '^\./benchmark/' -e '^\./\.bench_build/' \
        -e '^\./internal/sharedrsa/\(crt\|sign\|dealer\|keygen\|batch\)\.go:' \
        -e '^\./internal/authority/casei\.go:' \
        -e '^\./cmd/experiments/main\.go:' || true)
if [ -n "$bad" ]; then
    echo "private-exponent guard: math/big Exp outside the CRT signer and the shared-key allow-list:" >&2
    echo "$bad" >&2
    exit 1
fi

echo "==> one-decider guard (one serving decider, one statement-25 dispatch, one relation walk)"
# The residual decider decides every request Authorize serves. The 4-step
# replay is its oracle, entered only where authorizeAt honours
# SetResidualsEnabled(false): a second call site is a second serving path.
# Nothing pools engine forks any more; the fork pool existed only for the
# replay that every cold request used to fall back to.
n=$(grep -rnE '\bs\.replay\(' --include='*.go' . |
    grep -v -e '_test\.go:' -e '^\./\.bench_build/' | wc -l)
if [ "$n" -ne 1 ]; then
    echo "one-decider guard: s.replay( has $n non-test call sites, want 1 (authorizeAt's oracle switch)" >&2
    exit 1
fi
bad=$(grep -rnE 'ForkPooled|Recycle\(|cloneInto' --include='*.go' . |
    grep -v -e '_test\.go:' -e '^\./\.bench_build/' || true)
if [ -n "$bad" ]; then
    echo "one-decider guard: pooled engine forks are back:" >&2
    echo "$bad" >&2
    exit 1
fi
# Both deciders conclude "G says X" through logic.DeriveGroupSays. An
# A34–A38 axiom called outside internal/logic is a second dispatch, and
# the two would drift apart on the membership shapes one of them skips.
bad=$(grep -rnE 'logic\.A3[4-8][A-Za-z0-9]*\(' --include='*.go' . |
    grep -v -e '_test\.go:' -e '^\./internal/logic/' -e '^\./benchmark/' -e '^\./\.bench_build/' || true)
if [ -n "$bad" ]; then
    echo "one-decider guard: statement-25 axiom called outside internal/logic:" >&2
    echo "$bad" >&2
    exit 1
fi
# The relation closure is walked by logic.RelationWalk alone (the store,
# the residue compiler and the residue). delegation.Reachable is the
# independent oracle the property tests compare it with. A budget seed
# anywhere else is a third walk.
bad=$(grep -rnE '(Unbounded|unboundedBudget)\}' --include='*.go' . |
    grep -v -e '_test\.go:' -e '^\./internal/logic/store\.go:' \
        -e '^\./internal/delegation/delegation\.go:' -e '^\./benchmark/' -e '^\./\.bench_build/' || true)
if [ -n "$bad" ]; then
    echo "one-decider guard: relation-walk budget seed outside the walk and its oracle:" >&2
    echo "$bad" >&2
    exit 1
fi

echo "==> one-idealizer guard (every replayed belief comes from its pki idealizer)"
# WAL replay and replication install each recorded certificate's
# conclusion with logic.Engine.Install, from the pki.Idealize* form the
# live derivation used. A certificate-belief literal built in
# internal/authz is a hand-written mirror of one of them, free to drift.
# (freshEngine's anchor KeySpeaksFor assumptions do not match.)
bad=$(grep -rnE 'logic\.(Not|MemberOf|GroupSpeaksFor|GroupGraphEdge|Delegates)\{' --include='*.go' internal/authz |
    grep -v '_test\.go:' || true)
if [ -n "$bad" ]; then
    echo "one-idealizer guard: certificate belief built outside its pki idealizer:" >&2
    echo "$bad" >&2
    exit 1
fi

echo "==> logic ownership guard (internal/logic keeps no shared mutable state)"
# A sealed engine is read-only and shared; an unsealed engine or a fork
# has one owner (logic.Engine.Seal). Nothing in internal/logic is locked
# or memoized process-wide, so a sync or reflect import there is a lock,
# an atomic or a cache coming back.
bad=$(grep -lE '"(sync|sync/atomic|reflect)"' internal/logic/*.go |
    grep -v '_test\.go$' || true)
if [ -n "$bad" ]; then
    echo "logic ownership guard: sync, sync/atomic or reflect imported by:" >&2
    echo "$bad" >&2
    exit 1
fi

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

echo "==> public-surface lint (every package-level name and method has a non-test caller or an allow-list reason)"
# scripts/surface type-checks every module under the root (cmd/,
# examples/ and benchmark/ count as callers) and fails on a name declared
# in the root package or internal/ that nothing outside tests names, and
# on a stale, unknown or reasonless entry in scripts/surface/allow.txt.
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

echo "==> audit ring under race (go test -race -count=5 ./internal/audit)"
go test -race -count=5 ./internal/audit

echo "==> bench smoke (go test -bench=LogRecord -benchtime=1x ./internal/audit)"
go test -run '^$' -bench=LogRecord -benchtime=1x -benchmem ./internal/audit

echo "==> bench smoke (go test -bench=DelegationDepth -benchtime=1x)"
go test -run '^$' -bench=DelegationDepth -benchtime=1x .

echo "==> bench smoke (go test -bench=WALAppend -benchtime=1x ./internal/wal)"
go test -run '^$' -bench=WALAppend -benchtime=1x ./internal/wal

echo "==> bench smoke (go test -bench='FollowerFleet|CommandCodec' -benchtime=1x ./internal/daemon)"
go test -run '^$' -bench='FollowerFleet|CommandCodec' -benchtime=1x -benchmem ./internal/daemon

echo "==> bench smoke (go test -bench=FrameCodec -benchtime=1x ./internal/transport)"
go test -run '^$' -bench=FrameCodec -benchtime=1x -benchmem ./internal/transport

echo "==> bench smoke (go test -bench='^BenchmarkVerify$' -benchtime=1x ./internal/sharedrsa)"
go test -run '^$' -bench='^BenchmarkVerify$' -benchtime=1x -benchmem ./internal/sharedrsa

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

echo "==> RSA kernel, CRT signer and signature parser fuzz smoke (5s each: FuzzExpPublic against big.Int.Exp, FuzzSignCRT against Exp(h, d, N), FuzzParseHex against SetString)"
go test -run '^$' -fuzz='^FuzzExpPublic$' -fuzztime=5s ./internal/sharedrsa
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

echo "==> reproduction record (go run ./cmd/experiments: E1–E8, E11, E12, each shape checked; 15-20s on 2 cores)"
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
metrics=$(grep -ohE '"repl_[a-z_]+"' internal/replication/*.go | tr -d '"' | sort -u)
for m in $metrics; do
    if ! grep -rq -- "$m" docs/; then
        echo "docs lint: replication metric $m not documented anywhere in docs/" >&2
        fail=1
    fi
done
residual_metrics=$(grep -ohE '"authz_residual_[a-z_]+"' internal/authz/obs.go | tr -d '"' | sort -u)
for m in $residual_metrics; do
    if ! grep -rq -- "$m" docs/; then
        echo "docs lint: residual metric $m not documented anywhere in docs/" >&2
        fail=1
    fi
done
batch_metrics=$(grep -ohE '"authz_batch_verify_[a-z_]+"' internal/authz/obs.go | tr -d '"' | sort -u)
for m in $batch_metrics; do
    if ! grep -rq -- "$m" docs/; then
        echo "docs lint: batch-verify metric $m not documented anywhere in docs/" >&2
        fail=1
    fi
done
delegation_metrics=$(grep -ohE '"delegation_[a-z_]+"' internal/delegation/*.go | tr -d '"' | sort -u)
for m in $delegation_metrics; do
    if ! grep -rq -- "$m" docs/; then
        echo "docs lint: delegation metric $m not documented anywhere in docs/" >&2
        fail=1
    fi
done
mux_metrics=$(grep -ohE '"daemon_(mux|dedup)_[a-z_]+"' internal/daemon/*.go | tr -d '"' | sort -u)
for m in $mux_metrics; do
    if ! grep -rq -- "$m" docs/; then
        echo "docs lint: mux/dedup metric $m not documented anywhere in docs/" >&2
        fail=1
    fi
done
backpressure_metrics=$(grep -ohE '"transport_(inbox_full|frame_errors)_[a-z_]+"' internal/transport/*.go | tr -d '"' | sort -u)
for m in $backpressure_metrics; do
    if ! grep -rq -- "$m" docs/; then
        echo "docs lint: transport metric $m not documented anywhere in docs/" >&2
        fail=1
    fi
done
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
