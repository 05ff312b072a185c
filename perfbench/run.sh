#!/usr/bin/env bash
# Builds cmd/patternletd and the perfbench harness from the checkout this
# is run in, then runs one benchmark invocation. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload align-wavefront --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write lands in .bench_build/ under the
# root: the Go build cache, temp files, binaries, run stores and traces.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

go build -o "$out/bin/patternletd" ./cmd/patternletd
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -daemon "$out/bin/patternletd" -work "$out" "$@"
