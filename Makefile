# Convenience targets; `make check` is the CI gate (scripts/check.sh).

.PHONY: check build test bench bench-fork bench-wal bench-repl bench-load fmt

check:
	sh scripts/check.sh

build:
	go build ./...

test:
	go test ./...

bench:
	go test -bench=. -benchmem .

# Regenerates BENCH_fork.json (scripts/bench_fork.sh).
bench-fork:
	sh scripts/bench_fork.sh

# Regenerates BENCH_wal.json (scripts/bench_wal.sh).
bench-wal:
	sh scripts/bench_wal.sh

# Regenerates BENCH_repl.json (scripts/bench_repl.sh): follower-fleet
# authorize throughput at 1/2/4 followers.
bench-repl:
	sh scripts/bench_repl.sh

# Regenerates BENCH_load.json (scripts/bench_load.sh): coalition-scale
# load harness, four series (baseline / +batch-verify / +pooled / wire
# over localhost TCP via multiplexed daemon connections).
bench-load:
	sh scripts/bench_load.sh

fmt:
	gofmt -w .
