#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash perfbench/run.sh --workload live-ingest --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product and the Go build
# cache stay under .bench_build/ there, so a run reads and writes nothing
# outside the checkout.
set -euo pipefail
root=$(pwd)
bench=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
mkdir -p "$build/tmp"
go -C "$bench" build -o "$build/bin/perfbench" .
exec "$build/bin/perfbench" -root "$root" "$@"
