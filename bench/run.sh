#!/usr/bin/env bash
# Builds the benchmark (its own module, bench/go.mod) and runs it with the
# given arguments. Run from the root of a checkout:
#
#   bash bench/run.sh --workload hot_small --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind — Go's build cache, the two
# binaries, the daemon's log, the span files — stays under .bench_build in
# the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
# Go's own state (build cache, module cache, telemetry and env files under
# the user config directory) is pointed into the checkout as well.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
