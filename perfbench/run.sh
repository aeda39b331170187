#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark from the repository root:
#
#   bash perfbench/run.sh --workload adhoc-cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory; the Go toolchain never reaches the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C perfbench -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
