#!/usr/bin/env bash
# Builds the benchmark (bench/, its own Go module) and cmd/lowrankd from
# this checkout into .bench_build, then runs the benchmark with the
# given arguments; with none it only builds. Run it from anywhere:
#
#   bash bench/bench.sh -workload randomized -seed 1 -seconds 20 -trace 0
#
# The Go build cache, temporary files and toolchain state live under
# .bench_build too, so building and running touch nothing outside the
# checkout and need no network.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
    GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
(cd "$root/bench" && go build -o "$build/lrbench" .)
(cd "$root" && go build -o "$build/lowrankd" ./cmd/lowrankd)
[[ $# -eq 0 ]] && exit 0
cd "$root"
exec "$build/lrbench" "$@"
