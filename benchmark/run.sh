#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given flags.
# Run from the root of a checkout: bash benchmark/run.sh --workload lan_open --seed 1 --seconds 15 --trace 0
# Build products, Go's build cache and Go's per-user files (telemetry counters)
# go under .bench_build/, run data under benchmark/out/; nothing is read or
# written outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$build/rcc-benchmark" .
exec "$build/rcc-benchmark" "$@"
