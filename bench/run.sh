#!/usr/bin/env bash
# Launcher of the pipeline benchmark: builds bench/ (a Go module of its
# own that imports the repository's packages through a replace directive)
# and runs it from the root of the checkout. Everything it writes — Go's
# build cache and temporary files, the binary, run state, span files —
# stays under .bench_build/ in the checkout.
#
#   bash bench/run.sh --workload <name|all> --seed N --seconds S --trace 0|1
#   bash bench/run.sh -selfcheck [-runs K]
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gotmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/gotmp"
export GOENV=off
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOWORK=off

go build -C "$root/bench" -o "$build/vntbench" .
exec "$build/vntbench" -state "$build" "$@"
