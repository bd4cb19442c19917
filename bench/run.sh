#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Build outputs, the Go build cache and the go command's configuration and
# telemetry directory live in .bench_build/ at the root of the checkout, so
# nothing is written outside it.
#
#   bash bench/run.sh --workload session-churn --seed 1 --seconds 24 --trace 0
#   bash bench/run.sh compare 'runs/parent/*.jsonl' 'runs/change/*.jsonl'
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/bench" build -o "$out/bench" .
exec "$out/bench" "$@"
