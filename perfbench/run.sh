#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from and
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload control --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, module cache) stays
# under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
