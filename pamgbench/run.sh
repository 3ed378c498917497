#!/usr/bin/env bash
# Builds the pamg2d benchmark from the source tree it sits in, then runs it
# with the given arguments. Run from the repository root:
#
#   bash pamgbench/run.sh --workload naca-bl --seed 1 --seconds 50 --trace 0
#
# Everything the build and the run write goes under $CARGO_TARGET_DIR
# (default .bench_build): the Go build cache, the binary and the traced
# run's span files. Nothing is written outside the working directory.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOTELEMETRY=off

go -C "$here" build -o "$out/pamgbench" .
exec "$out/pamgbench" --out "$out" "$@"
