#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Run from anywhere: bash bench/run.sh --workload basic_serial --seed 1
#
# Everything the build and the run write stays inside the checkout: the
# Go build cache, the binary and temporary files under .bench_build/, the
# run's scratch files, CPU profiles and trace.json under bench/out/.
# The module here replaces `swiftsim` with the parent directory, so in a
# directory that holds only bench/ the build fails and this script exits
# non-zero without printing a result.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$root/bench/out"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" # keeps the toolchain's telemetry files here
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off

(cd "$root/bench" && go build -o "$build/swiftsim-bench" .)
exec "$build/swiftsim-bench" -out "$root/bench/out" "$@"
