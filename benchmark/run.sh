#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. bash benchmark/run.sh --workload stall-chase --seed 1 --seconds 20 --trace 0
# Every file the build and the run write (Go build cache, binary, farm
# state, trace output) stays under benchmark/.work.
set -euo pipefail
dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
work="$dir/.work"
mkdir -p "$work/tmp"
export GOCACHE="$work/gocache" GOTMPDIR="$work/tmp" GOPATH="$work/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$dir" && go build -o "$work/virec-bench" .)
exec "$work/virec-bench" -work "$work" "$@"
