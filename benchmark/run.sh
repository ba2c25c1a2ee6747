#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes — the binary, the compile cache — stays in
# .bench_build/ inside the checkout; the toolchain is the installed one.
# Traced runs write their span files to benchmark/out/ of this checkout,
# wherever the script is called from.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go build -C "$here" -ldflags "-X 'main.traceDir=$here/out'" -o "$build/benchmark" .
exec "$build/benchmark" "$@"
