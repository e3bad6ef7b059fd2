#!/usr/bin/env bash
# Builds the repository benchmark from the checkout's sources and runs
# it with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-cold --seed 1 --seconds 25 --trace 0
#
# Every build artifact (Go build cache, temporary files, the binary and
# the traced run's span files) lands under .bench_build/ in the
# checkout; nothing is fetched from the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
