#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload compile-cold --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build in the current directory: the Go build
# cache, the binary, the plan directories and the trace files.
set -euo pipefail

root="$(pwd)"
build="${root}/.bench_build"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "${build}"

export GOCACHE="${build}/gocache"
export GOPATH="${build}/gopath"
export GOENV=off
export GOTOOLCHAIN=local
export GOFLAGS="-buildvcs=false -mod=readonly"
export GOWORK=off
export GOPROXY=off

(cd "${here}" && go build -trimpath -o "${build}/perfbench" .)
exec "${build}/perfbench" "$@"
