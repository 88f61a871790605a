#!/bin/sh
# Runs the fork-scaling benchmark (BenchmarkForkScaling) and writes
# BENCH_fork.json at the repo root: raw ns/op per variant plus the derived
# ratios. See docs/BENCHMARKS.md for how to read the numbers.
#
#   scripts/bench_fork.sh
set -eu

cd "$(dirname "$0")/.."

FORKOUT="BENCH_fork.json"
FORKRAW=$(mktemp)
trap 'rm -f "$FORKRAW"' EXIT

# Fork scaling runs fixed at 10000x: each op is a single Engine.Fork, so
# time-based benchtimes would spin far too long on the deep-copy series.
echo "==> go test -bench BenchmarkForkScaling -benchtime 10000x"
go test -run '^$' -bench 'BenchmarkForkScaling' \
    -benchtime 10000x -count 1 . | tee "$FORKRAW"

awk '
/^cpu:/      { sub(/^cpu: */, ""); cpu = $0 }
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    nsop[name] = $3
}
END {
    d10   = nsop["BenchmarkForkScaling/deepcopy/n=10"]
    d100  = nsop["BenchmarkForkScaling/deepcopy/n=100"]
    d1000 = nsop["BenchmarkForkScaling/deepcopy/n=1000"]
    s10   = nsop["BenchmarkForkScaling/sealed/n=10"]
    s100  = nsop["BenchmarkForkScaling/sealed/n=100"]
    s1000 = nsop["BenchmarkForkScaling/sealed/n=1000"]
    if (d1000 == "" || s10 == "" || s1000 == "") {
        print "bench_fork: missing fork-scaling results" > "/dev/stderr"
        exit 1
    }
    printf "{\n"
    printf "  \"benchmark\": \"engine fork cost vs base size (sealed layered store vs deep copy)\",\n"
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"benchtime\": \"10000x\",\n"
    printf "  \"ns_per_op\": {\n"
    printf "    \"deepcopy_10\": %s,\n", d10
    printf "    \"deepcopy_100\": %s,\n", d100
    printf "    \"deepcopy_1000\": %s,\n", d1000
    printf "    \"sealed_10\": %s,\n", s10
    printf "    \"sealed_100\": %s,\n", s100
    printf "    \"sealed_1000\": %s\n", s1000
    printf "  },\n"
    printf "  \"speedup\": {\n"
    printf "    \"sealed_vs_deepcopy_at_1000\": %.2f,\n", d1000 / s1000
    printf "    \"sealed_flatness_1000_vs_10\": %.2f,\n", s1000 / s10
    printf "    \"deepcopy_growth_1000_vs_10\": %.2f\n", d1000 / d10
    printf "  },\n"
    printf "  \"notes\": \"deepcopy is the pre-layering fork (unsealed engine, overlay copied wholesale), linear in base size; sealed forks share the immutable base and should be flat from n=10 to n=1000 (flatness ratio near 1, acceptance threshold: sealed_vs_deepcopy_at_1000 >= 10).\"\n"
    printf "}\n"
}' "$FORKRAW" > "$FORKOUT"

echo "==> wrote $FORKOUT"
cat "$FORKOUT"
