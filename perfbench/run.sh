#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root, with the benchmark's own flags:
#
#   bash perfbench/run.sh --workload sql-analytics --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, binary, span dumps) goes
# under .bench_build, or under $CARGO_TARGET_DIR when that is set.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=

go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" --trace-dir "$build/perfbench-trace" "$@"
