#!/usr/bin/env bash
# Builds the benchmark and the spbd daemon from the checkout it is run in,
# then runs one workload. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload detail-sbbound --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache and all run-time files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$PWD/$build" ;;
esac
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" PPROF_TMPDIR="$build"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod

(cd perfbench && go build -o "$build/perfbench" . && go build -o "$build/spbd" spb/cmd/spbd)
exec "$build/perfbench" -spbd "$build/spbd" -workdir "$build" "$@"
