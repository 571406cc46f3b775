#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Run from the root
# of a dynmis checkout:
#
#   bash perfbench/run.sh --workload lib-powerlaw --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (Go build cache, binaries, the
# daemon's temporary WAL directory, span files) stays under .bench_build/
# in the checkout. See perfbench/NOTES.md for the workloads and metrics.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -work "$out" "$@"
