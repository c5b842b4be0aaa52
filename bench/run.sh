#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through.
# Run from the repository root:
#
#   bash bench/run.sh --workload beacon --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (Go build cache, binary) goes under
# .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOFLAGS= \
	GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off XDG_CONFIG_HOME="$build/config"
go -C bench build -buildvcs=false -o "$build/bluefi-bench" .
exec "$build/bluefi-bench" "$@"
