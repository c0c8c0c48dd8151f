#!/usr/bin/env bash
# Builds nrredis and the e2ebench load generator from this checkout, then
# runs the benchmark with the given arguments (see e2ebench/README.md):
#
#   bash e2ebench/run.sh --workload zset-read-pipelined --seed 1 --seconds 10 --trace 0
#
# Every build product and the Go build cache stay in .bench_build/ at the
# checkout root, so repeated runs rebuild only what changed.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root" && go build -o "$build/bin/nrredis" ./cmd/nrredis)
(cd "$root/e2ebench" && go build -o "$build/bin/e2ebench" .)
cd "$root"
exec "$build/bin/e2ebench" -server "$build/bin/nrredis" "$@"
