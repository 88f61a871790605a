#!/bin/sh
# Builds the benchmark from source into .bench_build at the root of the
# checkout and runs it with the given arguments. Everything the build
# and the run write stays inside the checkout.
set -e
here=$(cd "$(dirname "$0")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/jointadmin-bench" .)
exec "$build/jointadmin-bench" -out "$here/out" "$@"
