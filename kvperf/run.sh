#!/usr/bin/env bash
# Builds the kvperf benchmark from this checkout's sources and runs it
# with the given arguments, e.g.
#
#   bash kvperf/run.sh --workload hot-get --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
go -C kvperf build -o "$out/kvperf" .
exec "$out/kvperf" --span-log "$out/kvperf-spans.jsonl" "$@"
