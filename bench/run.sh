#!/usr/bin/env bash
# Builds churnd and the benchmark harness into bench/.build/ and runs the
# harness with the given arguments, from the repository root:
#
#   bash bench/run.sh --workload serve_read --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write — compiler cache, temporary files,
# binaries, run directories, trace files — stays under bench/.build/.
# Compilation is a build step: it happens here, before the harness starts
# its clock, and is no part of setup_s.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/bench/.build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOMAXPROCS=2
go build -o "$build/bin/churnd" ./cmd/churnd
go build -C bench -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
