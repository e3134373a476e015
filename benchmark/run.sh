#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the build leaves behind stays under benchmark/.bench_build/
# (ignored by benchmark/.gitignore): the Go build cache, temporary files,
# the toolchain's telemetry mode file, the binary and the traced run's spans.
#
#   bash benchmark/run.sh --workload relaunch --seed 1 --seconds 15 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
build="$here/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath"

export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOENV=off GOTOOLCHAIN=local

# Telemetry off, in a config directory of the build's own: in the default
# "local" mode the go command detaches a child of itself once a day per
# config directory (so once per fresh checkout) that outlives this script.
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"

XDG_CONFIG_HOME="$build/config" go build -o "$build/dopia-benchmark" ./benchmark
exec "$build/dopia-benchmark" "$@"
