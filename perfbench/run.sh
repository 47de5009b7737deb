#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Run it
# from the repository root; arguments pass through to the benchmark:
#
#   bash perfbench/run.sh --workload jobs-cold --seed 1 --seconds 15 --trace 0
#
# Every file the Go toolchain writes (build cache, temporary files,
# configuration) and the benchmark's own outputs stay under .bench_build
# in the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
