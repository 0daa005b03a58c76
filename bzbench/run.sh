#!/usr/bin/env bash
# Builds the BubbleZERO benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash bzbench/run.sh --workload fleet-batch --seed 1 --seconds 15 --trace 0
#
# Every build artefact, the Go build cache included, stays under
# .bench_build/ in the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=readonly

go -C "$here" build -o "$out/bzbench" .
exec "$out/bzbench" "$@"
