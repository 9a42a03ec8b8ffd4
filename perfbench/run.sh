#!/usr/bin/env bash
# Builds and runs the benchmark from the root of a checkout, for example
#
#   bash perfbench/run.sh --workload nisq-guoq --seed 1 --seconds 30 --trace 0
#
# The Go build cache, temporary files, the guoqd data directory and the
# span dumps all stay under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build/perfbench"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
cd "$root/perfbench"
exec go run . -work-dir "$build" "$@"
